package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/daiet/daiet/internal/controller"
	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/experiments"
	"github.com/daiet/daiet/internal/hashing"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/stats"
	"github.com/daiet/daiet/internal/topology"
	"github.com/daiet/daiet/internal/transport"
	"github.com/daiet/daiet/internal/wire"
)

// incastConfig sizes a fan-in workload: senders spread over racks of a
// leaf-spine fabric, all feeding one hop-by-hop reliable aggregation tree
// through shared-memory (Dynamic-Threshold) switch pools. It is the fabric
// experiments.BigIncast builds, which the fidelity cross-check relies on.
type incastConfig struct {
	senders, racks, spines int
	pairs                  int // mean pairs per sender (each draws ±20%)
	vocab, table           int
	poolKiB                int // leaf pool; spines get twice as much
	alpha                  float64
	domains                int
}

var (
	megaIncast = incastConfig{senders: 1024, racks: 16, spines: 2, pairs: 24,
		vocab: 8192, table: 2048, poolKiB: 512, alpha: 2, domains: 1}
	// bigincast runs on one engine domain: with two domains on a two-CPU
	// host it was no faster and its run-to-run spread about doubled, since
	// every barrier waits for whichever CPU a neighbour slowed. The
	// cross-check still runs it at two domains once per run.
	bigIncast = incastConfig{senders: 256, racks: 4, spines: 1, pairs: 600,
		vocab: 4096, table: 1024, poolKiB: 128, alpha: 2, domains: 1}
)

// Fixed parameters of the fabric and the reliable tree, the values
// experiments.BigIncast uses.
const (
	edgeQueueBytes = 64 << 20
	poolReserve    = 2 << 10
	replayDepth    = 64
	rto            = 500 * time.Microsecond
	pairsPerPacket = 10
	maxEvents      = 500_000_000
)

type incast struct {
	cfg  incastConfig
	seed uint64
	// streams[i] is sender i's key stream and want the exact aggregate,
	// both drawn by the benchmark from the seed.
	streams [][]core.KV
	want    map[string]uint32
	// overlapPct is the share of keys sent by two or more senders.
	overlapPct float64
}

func newIncast(cfg incastConfig, seed uint64) *incast {
	w := &incast{cfg: cfg, seed: seed, want: map[string]uint32{}}
	_, senders, _ := w.plan()
	senderSets := map[string]int{}
	for _, id := range senders {
		stream := w.stream(id)
		seen := map[string]bool{}
		for _, kv := range stream {
			w.want[kv.Key] += kv.Value
			if !seen[kv.Key] {
				seen[kv.Key] = true
				senderSets[kv.Key]++
			}
		}
		w.streams = append(w.streams, stream)
	}
	multi := 0
	for _, n := range senderSets {
		if n >= 2 {
			multi++
		}
	}
	w.overlapPct = 100 * stats.Ratio(float64(multi), float64(len(senderSets)))
	return w
}

// stream draws sender id's keys: a length within ±20% of the mean, keys
// from the shared vocabulary. The draw order matches the experiments
// package, so the cross-check can compare simulated fingerprints.
func (w *incast) stream(id netsim.NodeID) []core.KV {
	rng := rand.New(rand.NewSource(int64(hashing.Mix64(w.seed ^ uint64(id)<<20))))
	n := w.cfg.pairs * (80 + rng.Intn(41)) / 100
	out := make([]core.KV, n)
	for k := range out {
		out[k] = core.KV{Key: fmt.Sprintf("key-%05d", rng.Intn(w.cfg.vocab)), Value: uint32(rng.Intn(1000))}
	}
	return out
}

// plan builds the fabric: racks of senders plus one reducer rack under the
// spines, with a DT pool on every switch whose per-port floor is capped at
// a quarter of its memory.
func (w *incast) plan() (*topology.Plan, []netsim.NodeID, netsim.NodeID) {
	c := w.cfg
	perRack := (c.senders + c.racks - 1) / c.racks
	plan := topology.LeafSpine(c.racks+1, c.spines, perRack, netsim.LinkConfig{QueueBytes: edgeQueueBytes})
	ports := map[netsim.NodeID]int{}
	for _, l := range plan.Links {
		ports[l.A]++
		ports[l.B]++
	}
	for i, sw := range plan.Switches {
		total := c.poolKiB << 10
		if i >= c.racks+1 {
			total *= 2
		}
		reserve := poolReserve
		if limit := total / (4 * ports[sw]); reserve > limit {
			reserve = limit
		}
		plan.SetPool(sw, netsim.PoolConfig{TotalBytes: total, ReserveBytes: reserve, Alpha: c.alpha})
	}
	return plan, plan.Hosts[:c.senders], plan.Hosts[c.racks*perRack]
}

// fingerprint is the simulated outcome the cross-checks compare.
type fingerprint struct {
	events, frames, drops uint64
	completion            netsim.Time
}

func (f fingerprint) String() string {
	return fmt.Sprintf("events=%d frames=%d drops=%d completion=%v", f.events, f.frames, f.drops, f.completion)
}

func (w *incast) iterate(t *timer) (*outcome, error) {
	var (
		plan     *topology.Plan
		workers  []netsim.NodeID
		reducer  netsim.NodeID
		nw       *netsim.Network
		fab      *topology.Fabric
		ctl      *controller.Controller
		tplan    *controller.TreePlan
		col      *core.Collector
		senders  []*core.ReliableSender
		programs = map[netsim.NodeID]*core.Program{}
		hosts    = map[netsim.NodeID]*transport.Host{}
		// Decorators, traced runs only.
		switchNodes, hostNodes []*timedNode
	)
	traced := t.tr != nil
	wrap := func(n netsim.Node, into *[]*timedNode) netsim.Node {
		if !traced {
			return n
		}
		d := &timedNode{inner: n}
		*into = append(*into, d)
		return d
	}

	t.begin(phaseSetup)
	err := t.call("topology.plan", func() error {
		plan, workers, reducer = w.plan()
		return nil
	})
	if err == nil {
		err = t.call("topology.realize", func() error {
			var buildErr error
			nw = netsim.New(w.seed)
			fab = plan.Realize(nw,
				func(id netsim.NodeID) netsim.Node {
					prog, err := core.NewProgram(core.ProgramConfig{})
					if err != nil {
						buildErr = err
						return transport.NewHost()
					}
					programs[id] = prog
					return wrap(prog.Switch(), &switchNodes)
				},
				func(id netsim.NodeID) netsim.Node {
					h := transport.NewHost()
					hosts[id] = h
					return wrap(h, &hostNodes)
				})
			return buildErr
		})
	}
	if err != nil {
		return nil, err
	}
	defer nw.Close()
	err = t.call("topology.partition", func() error { return fab.Partitions(w.cfg.domains) })
	if err == nil {
		err = t.call("controller.routing", func() error {
			ctl = controller.New(fab, programs)
			return ctl.InstallRouting()
		})
	}
	if err == nil {
		err = t.call("controller.tree", func() error {
			var err error
			if tplan, err = ctl.PlanTree(reducer, workers); err != nil {
				return err
			}
			return ctl.InstallTree(tplan, controller.TreeOptions{
				Agg: core.AggSum, TableSize: w.cfg.table, Reliable: true,
				RootReplay: replayDepth, RootRTO: rto, HopReplay: true,
			})
		})
	}
	if err == nil {
		err = t.call("core.endpoints", func() error {
			sum, err := core.FuncByID(core.AggSum)
			if err != nil {
				return err
			}
			col = core.NewCollector(uint32(reducer), sum, wire.DefaultGeometry, tplan.RootChildren())
			col.Attach(hosts[reducer])
			col.EnableRootAck()
			rcfg := core.ReliableConfig{Window: 32, RTO: rto, MaxRetries: 10_000}
			for _, id := range workers {
				mux := core.NewAckMux(hosts[id])
				s, err := core.NewReliableSender(hosts[id], tplan.TreeID, reducer,
					wire.DefaultGeometry, pairsPerPacket, rcfg)
				if err != nil {
					return err
				}
				mux.Register(s)
				senders = append(senders, s)
			}
			return nil
		})
	}
	t.end()
	if err != nil {
		return nil, err
	}

	t.begin(phaseSimulate)
	err = t.call("core.inject", func() error {
		for i, s := range senders {
			for _, kv := range w.streams[i] {
				if err := s.Send([]byte(kv.Key), kv.Value); err != nil {
					return err
				}
			}
			s.End()
		}
		return nil
	})
	if err == nil {
		err = t.call("netsim.run", func() error { return nw.Run(maxEvents) })
	}
	t.end()
	if err != nil {
		return nil, err
	}
	t.sampleHeap()

	t.begin(phaseVerify)
	var out *outcome
	err = t.call("verify", func() error {
		var err error
		out, err = w.verify(nw, fab, programs, tplan, col, senders)
		return err
	})
	t.end()
	if err != nil {
		return nil, err
	}
	if traced {
		sw, swBusy := t.mergeNodes("dataplane", switchNodes)
		hf, hBusy := t.mergeNodes("transport", hostNodes)
		toSwitches, toHosts := deliveredFrames(fab)
		if sw != toSwitches || hf != toHosts {
			return nil, fmt.Errorf("decorators counted %d switch and %d host frames, the links delivered %d and %d",
				sw, hf, toSwitches, toHosts)
		}
		run := t.layer["netsim.run"].Seconds()
		busy := (swBusy + hBusy).Seconds()
		out.layer["dataplane.handle_s"] = swBusy.Seconds()
		out.layer["dataplane.frames"] = float64(sw)
		out.layer["dataplane.ns_per_frame"] = 1e9 * stats.Ratio(swBusy.Seconds(), float64(sw))
		out.layer["transport.handle_s"] = hBusy.Seconds()
		out.layer["transport.frames"] = float64(hf)
		// With several domains the node time of parallel workers adds up,
		// so the engine's share is taken from the workers' total capacity.
		out.layer["netsim.self_s"] = run*float64(nw.Domains()) - busy
	}
	return out, nil
}

// verify checks the iteration's output and collects its counters: every
// sender done, the collector complete, and the aggregate exactly the
// benchmark's ground truth.
func (w *incast) verify(nw *netsim.Network, fab *topology.Fabric, programs map[netsim.NodeID]*core.Program,
	tplan *controller.TreePlan, col *core.Collector, senders []*core.ReliableSender) (*outcome, error) {

	var pairsSent uint64
	for i, s := range senders {
		if !s.Done() {
			return nil, fmt.Errorf("sender %d incomplete: %v", i, s.Err())
		}
		pairsSent += s.Stats.PairsSent
	}
	if !col.Complete() {
		return nil, fmt.Errorf("collector incomplete (%+v)", col.Stats)
	}
	got := col.Result()
	if len(got) != len(w.want) {
		return nil, fmt.Errorf("aggregate has %d keys, want %d", len(got), len(w.want))
	}
	for k, v := range w.want {
		if got[k] != v {
			return nil, fmt.Errorf("key %q = %d, want %d (duplicate or lost aggregation)", k, got[k], v)
		}
	}

	var ts core.TreeStats
	for _, sw := range tplan.SwitchNodes {
		if st, ok := programs[sw].TreeStats(tplan.TreeID); ok {
			ts.PairsIn += st.PairsIn
			ts.PairsCombined += st.PairsCombined
			ts.PairsSpilled += st.PairsSpilled
			ts.RootRetransmissions += st.RootRetransmissions
			ts.FlushStalls += st.FlushStalls
		}
	}
	var attempted, dropped uint64
	var highWater float64
	for _, sw := range fab.Plan.Switches {
		for p := 0; p < nw.NumPorts(sw); p++ {
			st := nw.PortStats(sw, p)
			attempted += st.TxFrames + st.DropsPool + st.DropsFull + st.DropsLoss
			dropped += st.DropsPool + st.DropsFull + st.DropsLoss
		}
		ps, ok := nw.PoolStats(sw)
		if !ok {
			return nil, fmt.Errorf("switch %d has no pool", sw)
		}
		highWater = max(highWater, 100*float64(ps.HighWater)/float64(ps.TotalBytes))
	}
	fp := fingerprint{events: nw.Processed(), frames: nw.TotalStats().TxFrames, drops: dropped, completion: nw.Now()}
	sync := nw.SyncStats()
	return &outcome{
		fingerprint:  fp.String(),
		frames:       fp.frames,
		completion:   fp.completion,
		reductionPct: stats.ReductionPct(float64(pairsSent), float64(col.Stats.PairsReceived)),
		overlapPct:   w.overlapPct,
		layer: map[string]float64{
			"netsim.events":             float64(fp.events),
			"netsim.peak_arena_kb":      float64(nw.ArenaStats().Bytes) / 1024,
			"netsim.drop_ratio":         stats.Ratio(float64(dropped), float64(attempted)),
			"netsim.pool_highwater_pct": highWater,
			"netsim.sync_barriers":      float64(sync.Barriers),
			"netsim.sync_windows":       float64(sync.Windows),
			"netsim.idle_window_ratio":  stats.Ratio(float64(sync.IdleWindows), float64(sync.Windows)),
			"netsim.mean_horizon_us":    float64(sync.MeanHorizon()) / 1e3,
			"core.pairs_in":             float64(ts.PairsIn),
			"core.combine_ratio":        stats.Ratio(float64(ts.PairsCombined), float64(ts.PairsIn)),
			"core.pairs_spilled":        float64(ts.PairsSpilled),
			"core.hop_retransmissions":  float64(ts.RootRetransmissions),
			"core.flush_stalls":         float64(ts.FlushStalls),
		},
	}, nil
}

// deliveredFrames counts the frames the links carried into switches and
// into hosts: each port's transmitted frames arrive at the port's peer.
func deliveredFrames(fab *topology.Fabric) (toSwitches, toHosts uint64) {
	for _, id := range append(append([]netsim.NodeID(nil), fab.Plan.Switches...), fab.Plan.Hosts...) {
		for _, e := range fab.Neighbors(id) {
			n := fab.Net.PortStats(id, e.Port).TxFrames
			if topology.IsSwitchID(e.Peer) {
				toSwitches += n
			} else {
				toHosts += n
			}
		}
	}
	return toSwitches, toHosts
}

// crossCheck runs experiments.BigIncast on the same configuration at one
// and at two engine domains: both must simulate exactly what the composed
// iteration simulated.
func (w *incast) crossCheck(first *outcome) error {
	for _, domains := range []int{1, 2} {
		res, err := experiments.BigIncast(experiments.BigIncastConfig{
			Seed: w.seed, Senders: w.cfg.senders, Racks: w.cfg.racks, Spines: w.cfg.spines,
			PairsPerSender: w.cfg.pairs, Vocab: w.cfg.vocab, TableSize: w.cfg.table,
			PoolBytes: w.cfg.poolKiB << 10, Alpha: w.cfg.alpha, SimWorkers: domains,
		})
		if err != nil {
			return fmt.Errorf("experiments.BigIncast at %d domains: %w", domains, err)
		}
		ref := fingerprint{events: res.Events, frames: res.Frames, drops: res.FramesDropped, completion: res.Completion}
		if ref.String() != first.fingerprint {
			return fmt.Errorf("composed run (%d domains) simulated %s, experiments.BigIncast at %d domains %s",
				w.cfg.domains, first.fingerprint, domains, ref)
		}
	}
	return nil
}
