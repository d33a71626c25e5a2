package experiments

import (
	"fmt"
	"time"

	"github.com/daiet/daiet/internal/controller"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/stats"
	"github.com/daiet/daiet/internal/topology"
)

// Incast is the first scenario beyond the paper's evaluation: synchronized
// fan-in under small switch buffers — the regime the paper explicitly
// leaves open ("we do not address the issue of packet losses"; the testbed
// was a bmv2 software switch whose veth buffering is effectively
// unbounded, cf. ClusterConfig.QueueBytes). Every worker starts streaming
// into one aggregation tree at t=0; the per-port queues on the
// worker→switch edge are swept from testbed-sized down to a few frames, so
// the simultaneous burst tail-drops, and the reliability extension
// (core.ReliableSender + the switch-side gate) must recover the losses.
//
// Measured per queue size: the edge drop rate, the retransmissions the
// recovery cost, and how much the synchronized round's completion time
// inflates relative to the same workload under testbed-sized buffers —
// with the correctness gate that the aggregated sums stay exact despite
// retransmission (the gate's idempotence claim, under real loss at scale).
//
// The root (switch→reducer) hop is swept along with the edge: flush
// traffic is protected by the switch-side bounded replay buffer
// (core.TreeConfig.RootReplay) — retained-until-ACKed packets, go-back-N
// retransmission, and flush-loop backpressure when the buffer fills — with
// the collector gating per-source sequence order and answering cumulative
// ACKs. Earlier revisions exempted the root hop with testbed-sized queues;
// the replay buffer removes that exemption.

// IncastConfig sizes one incast trial.
type IncastConfig struct {
	Seed    uint64
	Senders int // fan-in degree (default 24, the paper's mapper count)
	// PairsPerSender is the mean stream length; each sender draws its
	// actual length within ±20% from its own seed stream (default 1200).
	PairsPerSender int
	// QueueBytes sizes every host's per-port queue, the same quantity
	// ClusterConfig.QueueBytes sets fabric-wide (default 64 MiB, i.e. the
	// loss-free testbed). The worker→switch edge and the switch→reducer
	// root hop are swept together.
	QueueBytes int
	// StartJitter staggers sender start times uniformly over [0,
	// StartJitter], drawn deterministically per (seed, sender). 0 keeps
	// the fully synchronized fan-in.
	StartJitter time.Duration
	// SimWorkers partitions the fabric into parallel event-engine domains
	// (0 autotunes; a single-switch plan autotunes to sequential). When
	// cut explicitly, the senders themselves spread across domains;
	// results are byte-identical at any value.
	SimWorkers int
	// Recut enables measured-skew dynamic re-partitioning (zero value
	// disables); results stay byte-identical under any re-cut schedule.
	Recut topology.RecutConfig
}

// Fixed parameters of the incast tree: the shared key space (overlapping
// keys make the in-network aggregation real), the per-tree register cells
// and the switch's replay buffer for the switch→reducer hop, in packets.
const (
	incastVocab      = 2048
	incastTableSize  = 4096
	incastRootReplay = 32
)

func (c IncastConfig) withDefaults() IncastConfig {
	if c.Senders == 0 {
		c.Senders = 24
	}
	if c.PairsPerSender == 0 {
		c.PairsPerSender = 1200
	}
	if c.QueueBytes == 0 {
		c.QueueBytes = 64 << 20
	}
	return c
}

// IncastResult is one trial's outcome.
type IncastResult struct {
	Cfg IncastConfig

	// Admission accounting on the worker→switch edge.
	FramesAttempted uint64
	FramesDropped   uint64
	DropRatePct     float64

	// Reliability-layer work.
	Transmissions   uint64
	Retransmissions uint64
	PairsSent       uint64

	// Completion is the virtual time at which every sender's stream was
	// acknowledged and the reducer's collector completed.
	Completion netsim.Time
}

// Incast runs one synchronized fan-in round and verifies the aggregate is
// exact. The result is fully deterministic in (Seed, config): completion
// is virtual time, and drops come from queue admission, not randomness.
func Incast(cfg IncastConfig) (*IncastResult, error) {
	cfg = cfg.withDefaults()
	plan := topology.SingleSwitch(cfg.Senders+1, netsim.LinkConfig{QueueBytes: cfg.QueueBytes})
	workers, reducer := plan.Hosts[:cfg.Senders], plan.Hosts[cfg.Senders]

	f, err := newFanIn("incast", plan, cfg.Seed, cfg.SimWorkers, cfg.Recut, netsim.SyncEIT)
	if err != nil {
		return nil, err
	}
	// The single switch is the tree root: it gates the workers for
	// exactly-once aggregation, and its flush hop to the reducer is
	// protected by the bounded replay buffer instead of by testbed-sized
	// queues. Go-back-N keeps at most 32 packets in flight per sender;
	// under small buffers even that burst overflows the edge queue.
	t := &faninTree{
		workers: workers, reducer: reducer,
		pairs: cfg.PairsPerSender, vocab: incastVocab,
		opts:   controller.TreeOptions{TableSize: incastTableSize, RootReplay: incastRootReplay},
		window: 32,
		jitter: cfg.StartJitter,
	}
	if err := f.addTree(t); err != nil {
		return nil, err
	}
	if _, err := f.run(200_000_000, nil); err != nil {
		return nil, err
	}

	res := &IncastResult{Cfg: cfg, Completion: f.nw.Now()}
	res.Transmissions, res.Retransmissions, res.PairsSent = t.totals()
	// Edge admission, worker→switch direction only (port 0 is every
	// host's uplink).
	var e egress
	for _, w := range workers {
		e.add(f.nw, w, 0)
	}
	res.FramesAttempted, res.FramesDropped = e.attempted, e.dropped
	res.DropRatePct = 100 * stats.Ratio(float64(e.dropped), float64(e.attempted))
	return res, nil
}

// incastRefs memoizes loss-free reference runs across the sweep's points:
// every queue-size point of a trial needs the same reference, so computing
// it once per (seed, size) config saves the bulk of the figure's
// wall-clock.
var incastRefs memo[IncastConfig, *IncastResult]

// incastPoint runs one trial of the incast figures, with vary applied to
// the trial's base config, and prices it against the loss-free
// synchronized reference: identical workload, testbed-sized buffers, no
// stagger. The reference is independent of the swept knob, so all points
// of one trial share it, and the inflation prices in both the loss
// recovery and any stagger.
func incastPoint(tr Trial, vary func(*IncastConfig)) (map[string]float64, error) {
	base := IncastConfig{
		Seed:           tr.Seed,
		Senders:        scaledInt(24, tr.Scale, 4),
		PairsPerSender: scaledInt(1200, tr.Scale, 120),
		SimWorkers:     tr.SimWorkers,
		Recut:          tr.Recut,
	}
	cfg := base
	vary(&cfg)
	res, err := Incast(cfg)
	if err != nil {
		return nil, err
	}
	ref, err := incastRefs.get(base, Incast)
	if err != nil {
		return nil, err
	}
	dataPkts := res.Transmissions - res.Retransmissions
	return map[string]float64{
		"drop_rate_pct":            res.DropRatePct,
		"retransmissions_per_kpkt": 1000 * stats.Ratio(float64(res.Retransmissions), float64(dataPkts)),
		"completion_inflation_x":   stats.Ratio(float64(res.Completion), float64(ref.Completion)),
	}, nil
}

func init() {
	metrics := []string{"drop_rate_pct", "retransmissions_per_kpkt", "completion_inflation_x"}
	queues := []int{2048, 4096, 8192, 16384, 65536}
	pts := make([]Point, len(queues))
	for i, q := range queues {
		pts[i] = Point{Label: fmt.Sprintf("%dKiB", q/1024), X: float64(q)}
	}
	Register(&Spec{
		Name:    "incast",
		Title:   "Extension: incast under small buffers (edge + root swept) — edge gate + root replay buffer under loss (paper: losses left open)",
		XLabel:  "port queue",
		Points:  pts,
		Metrics: metrics,
		Run: func(pt Point, tr Trial) (map[string]float64, error) {
			return incastPoint(tr, func(c *IncastConfig) { c.QueueBytes = int(pt.X) })
		},
	})

	// incast-jitter: the same fan-in at one fixed small queue, sweeping the
	// sender start-time stagger — how much deterministic jitter defuses the
	// synchronized burst that causes the loss in the first place.
	jitters := []time.Duration{0, 25 * time.Microsecond, 100 * time.Microsecond, 400 * time.Microsecond}
	jpts := make([]Point, len(jitters))
	for i, j := range jitters {
		jpts[i] = Point{Label: fmt.Sprintf("%dus", j.Microseconds()), X: float64(j.Microseconds())}
	}
	Register(&Spec{
		Name:    "incast-jitter",
		Title:   "Extension: staggered sender starts under incast (4 KiB queues) — jitter vs loss",
		XLabel:  "start jitter",
		Points:  jpts,
		Metrics: metrics,
		Run: func(pt Point, tr Trial) (map[string]float64, error) {
			return incastPoint(tr, func(c *IncastConfig) {
				c.QueueBytes = 4096
				c.StartJitter = time.Duration(pt.X) * time.Microsecond
			})
		},
	})
}
