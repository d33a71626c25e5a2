package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/daiet/daiet/internal/controller"
	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/hashing"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/telemetry"
	"github.com/daiet/daiet/internal/topology"
	"github.com/daiet/daiet/internal/transport"
	"github.com/daiet/daiet/internal/wire"
)

// The reliable fan-in driver shared by incast, bigincast and tenants (and
// through bigincast, megaincast and syncproto): realize a plan with DAIET
// programs on switches and plain hosts, partition and route it, install
// each aggregation tree with a root-ACKing collector and go-back-N
// senders, run the round, verify exactly-once aggregation, and account
// per-port egress admission. Each experiment supplies only its plan, its
// trees and its metrics.

// Fixed parameters of every reliable fan-in tree.
const (
	faninRTO            = 500 * time.Microsecond // sender and switch replay timeout
	faninMaxRetries     = 10_000                 // completion, not give-up, is under study
	faninPairsPerPacket = 10
)

// fanin is one realized reliable fan-in fabric and the trees installed on
// it.
type fanin struct {
	name     string // experiment name, prefixed to errors
	seed     uint64
	nw       *netsim.Network
	plan     *topology.Plan
	fab      *topology.Fabric
	programs map[netsim.NodeID]*core.Program
	hosts    map[netsim.NodeID]*transport.Host
	ctl      *controller.Controller
	trees    []*faninTree
}

// newFanIn realizes plan with a default DAIET program per switch and a
// transport host per host node (pools declared on the plan are installed
// by Realize), cuts it into simWorkers engine domains under recut and
// proto, and installs routing.
func newFanIn(name string, plan *topology.Plan, seed uint64, simWorkers int,
	recut topology.RecutConfig, proto netsim.SyncProtocol) (*fanin, error) {

	f := &fanin{
		name:     name,
		seed:     seed,
		nw:       netsim.New(seed),
		plan:     plan,
		programs: map[netsim.NodeID]*core.Program{},
		hosts:    map[netsim.NodeID]*transport.Host{},
	}
	var buildErr error
	f.fab = plan.Realize(f.nw,
		func(id netsim.NodeID) netsim.Node {
			prog, err := core.NewProgram(core.ProgramConfig{})
			if err != nil {
				buildErr = err
				return transport.NewHost() // placeholder; buildErr aborts below
			}
			f.programs[id] = prog
			return prog.Switch()
		},
		func(id netsim.NodeID) netsim.Node {
			h := transport.NewHost()
			f.hosts[id] = h
			return h
		})
	if buildErr != nil {
		return nil, buildErr
	}
	if err := f.fab.PartitionsDynamic(simWorkers, recut); err != nil {
		return nil, err
	}
	f.nw.SetSyncProtocol(proto)
	f.ctl = controller.New(f.fab, f.programs)
	if err := f.ctl.InstallRouting(); err != nil {
		return nil, err
	}
	return f, nil
}

// faninTree is one reliable aggregation tree: every worker streams its
// senderWorkload pairs through a go-back-N sender to a root-ACKing
// collector at the reducer. The fields above the blank line describe the
// tree; addTree fills the rest, and the run sets completion.
type faninTree struct {
	name         string // tenant label in errors; empty for single-tree runs
	workers      []netsim.NodeID
	reducer      netsim.NodeID
	pairs, vocab int                    // senderWorkload sizing
	opts         controller.TreeOptions // Agg, Reliable and RootRTO are set by addTree
	window       int                    // go-back-N window per sender
	// By default every stream queues at t=0. jitter > 0 starts each
	// sender at its own offset in [0, jitter], drawn after its pairs so
	// the stagger never perturbs the workload; pace > 0 sends chunk pairs
	// every pace on the sender's own clock instead.
	jitter, pace time.Duration
	chunk        int

	plan       *controller.TreePlan
	col        *core.Collector
	senders    []*core.ReliableSender
	want       map[string]uint32
	feedErrs   []error
	completion netsim.Time // virtual time the collector completed
}

// addTree plans and installs t, attaches its collector and senders, and
// queues (or schedules) every worker's stream.
func (f *fanin) addTree(t *faninTree) error {
	tplan, err := f.ctl.PlanTree(t.reducer, t.workers)
	if err != nil {
		return err
	}
	opts := t.opts
	opts.Agg, opts.Reliable, opts.RootRTO = core.AggSum, true, faninRTO
	if err := f.ctl.InstallTree(tplan, opts); err != nil {
		return err
	}
	sum, err := core.FuncByID(core.AggSum)
	if err != nil {
		return err
	}
	t.plan = tplan
	t.col = core.NewCollector(uint32(t.reducer), sum, wire.DefaultGeometry, tplan.RootChildren())
	t.col.Attach(f.hosts[t.reducer])
	t.col.EnableRootAck()
	t.col.OnComplete = func() { t.completion = f.nw.NodeNow(t.reducer) }

	rcfg := core.ReliableConfig{Window: t.window, RTO: faninRTO, MaxRetries: faninMaxRetries}
	t.want = map[string]uint32{}
	// One error slot per sender: a scheduled feed runs on its own worker's
	// partition domain, so a shared variable would be a write-write race
	// across domains. Slots are only read after Run's final barrier.
	t.feedErrs = make([]error, len(t.workers))
	for i, w := range t.workers {
		mux := core.NewAckMux(f.hosts[w])
		s, err := core.NewReliableSender(f.hosts[w], tplan.TreeID, t.reducer,
			wire.DefaultGeometry, faninPairsPerPacket, rcfg)
		if err != nil {
			return err
		}
		mux.Register(s)
		t.senders = append(t.senders, s)
		stream, rng := senderWorkload(f.seed, w, t.pairs, t.vocab, t.want)
		slot := &t.feedErrs[i]
		send := func(kvs []core.KV, end bool) {
			for _, kv := range kvs {
				if err := s.Send([]byte(kv.Key), kv.Value); err != nil {
					*slot = err
					return
				}
			}
			if end {
				s.End()
			}
		}
		switch {
		case t.pace > 0:
			for c := 0; c*t.chunk < len(stream); c++ {
				part := stream[c*t.chunk:]
				if len(part) > t.chunk {
					part = part[:t.chunk]
				}
				last := (c+1)*t.chunk >= len(stream)
				f.nw.NodeAfter(w, netsim.Time(c)*netsim.Duration(t.pace), func() { send(part, last) })
			}
		case t.jitter > 0:
			// Scheduled at setup on the sender's own node, so it lands on
			// the right partition domain.
			delay := netsim.Time(rng.Int63n(int64(netsim.Duration(t.jitter)) + 1))
			f.nw.NodeAfter(w, delay, func() { send(stream, true) })
		default:
			send(stream, true) // a direct call: the whole stream queues at t=0
		}
	}
	f.trees = append(f.trees, t)
	return nil
}

// run executes the round, bounded by maxEvents so a regression errors
// instead of hanging, and then checks every tree. With tel non-nil it
// probes every switch of the plan and path-traces the switch tier, and
// returns the recorded timeline.
func (f *fanin) run(maxEvents uint64, tel *telemetry.Config) (*telemetry.Timeline, error) {
	var tl *telemetry.Timeline
	if tel != nil {
		rec := telemetry.NewRecorder(f.nw, *tel)
		for _, sw := range f.plan.Switches {
			if err := rec.WatchSwitch(sw, f.programs[sw]); err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", f.name, err)
			}
		}
		rec.EnablePathTrace(f.plan.Switches)
		rec.Start()
		if err := rec.RunSampled(maxEvents); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", f.name, err)
		}
		tl = rec.Timeline()
	} else if err := f.nw.Run(maxEvents); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", f.name, err)
	}
	for _, t := range f.trees {
		if err := t.check(); err != nil {
			if t.name != "" {
				err = fmt.Errorf("%s: %w", t.name, err)
			}
			return nil, fmt.Errorf("experiments: %s: %w", f.name, err)
		}
	}
	return tl, nil
}

// check asserts every feed succeeded, every sender finished and the
// collector completed with the exact aggregate.
func (t *faninTree) check() error {
	for i, err := range t.feedErrs {
		if err != nil {
			return fmt.Errorf("sender %d feed: %w", i, err)
		}
	}
	for i, s := range t.senders {
		if !s.Done() {
			return fmt.Errorf("sender %d incomplete: %v", i, s.Err())
		}
	}
	if !t.col.Complete() {
		return fmt.Errorf("collector incomplete (%+v)", t.col.Stats)
	}
	return verifyExactOnce(t.col, t.want)
}

// verifyExactOnce is the correctness gate of every loss experiment: the
// collector's aggregate must equal the ground truth exactly — a duplicate
// or lost pair anywhere in the tree shows up as a wrong sum.
func verifyExactOnce(col *core.Collector, want map[string]uint32) error {
	got := col.Result()
	if len(got) != len(want) {
		return fmt.Errorf("%d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			return fmt.Errorf("key %q = %d, want %d (duplicate or lost aggregation)",
				k, got[k], v)
		}
	}
	return nil
}

// totals sums the reliability-layer work of the tree's senders.
func (t *faninTree) totals() (transmissions, retransmissions, pairsSent uint64) {
	for _, s := range t.senders {
		transmissions += s.Stats.Transmissions
		retransmissions += s.Stats.Retransmissions
		pairsSent += s.Stats.PairsSent
	}
	return transmissions, retransmissions, pairsSent
}

// egress is per-port egress admission accounting: the frames a port
// attempted (sent, or dropped by its pool, its full queue or the link) and
// the frames it dropped, with the pool's share of the drops.
type egress struct{ attempted, dropped, poolDrops uint64 }

func (e *egress) add(nw *netsim.Network, node netsim.NodeID, port int) {
	st := nw.PortStats(node, port)
	drops := st.DropsPool + st.DropsFull + st.DropsLoss
	e.attempted += st.TxFrames + drops
	e.dropped += drops
	e.poolDrops += st.DropsPool
}

// senderWorkload draws worker w's deterministic stream: its actual length
// within ±20% of pairsMean, keys from a shared vocab (overlap makes the
// in-network aggregation real), accumulating the ground truth into want.
// The returned RNG has consumed exactly the workload draws, so later draws
// (start jitter) never perturb the stream itself.
func senderWorkload(seed uint64, w netsim.NodeID, pairsMean, vocab int,
	want map[string]uint32) ([]core.KV, *rand.Rand) {

	rng := rand.New(rand.NewSource(int64(hashing.Mix64(seed ^ uint64(w)<<20))))
	n := pairsMean * (80 + rng.Intn(41)) / 100 // ±20%
	stream := make([]core.KV, n)
	for k := 0; k < n; k++ {
		key := fmt.Sprintf("key-%05d", rng.Intn(vocab))
		val := uint32(rng.Intn(1000))
		want[key] += val
		stream[k] = core.KV{Key: key, Value: val}
	}
	return stream, rng
}

// jainIndex is Jain's fairness index over xs: (Σx)² / (n·Σx²) — 1.0 when
// every element is equal, approaching 1/n when one element dominates.
func jainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// memo caches a computation that is deterministic in its key, so sweep
// points sharing a reference run (or a corpus, or a graph) pay for it once.
// A concurrent duplicate computes an identical value and stores it again,
// which is benign.
type memo[K comparable, V any] struct{ m sync.Map }

func (c *memo[K, V]) get(key K, compute func(K) (V, error)) (V, error) {
	if v, ok := c.m.Load(key); ok {
		return v.(V), nil
	}
	v, err := compute(key)
	if err != nil {
		return v, err
	}
	c.m.Store(key, v)
	return v, nil
}
