package experiments

import (
	"fmt"
	"time"

	"github.com/daiet/daiet/internal/faults"
	"github.com/daiet/daiet/internal/mapreduce"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/stats"
	"github.com/daiet/daiet/internal/topology"
	"github.com/daiet/daiet/internal/workload"
)

// The faults figure is the failure-mode counterpart of every other figure:
// the same WordCount-over-leaf-spine job the multirack experiment runs,
// but under a randomly-drawn fault schedule (switch crashes that lose
// in-switch partial aggregates, link flaps, host stragglers) with the
// controller's timeout-based liveness and aggregation-tree failover
// recovering it (mapreduce.RunJobFT). Swept: fault rate × recovery
// timeout, the latter expressed as a fraction of the fault-free completion
// so the axis is scale-invariant.
//
// Exactly-once is asserted inside every trial — RunJobFT verifies the
// merged result against the reference computed from the spills — so each
// figure cell is also thousands of correctness checks under failure.

// FaultScenarioConfig sizes one fault-injection trial.
type FaultScenarioConfig struct {
	Seed     uint64
	Mappers  int // default 8, spread over a 2-leaf × 2-spine fabric
	Reducers int // default 2
	Vocab    int // keys per reducer (default 300)
	// Crashes / LinkFlaps / Stragglers count the fault pairs drawn over
	// the fault-free completion horizon.
	Crashes    int
	LinkFlaps  int
	Stragglers int
	// TimeoutFrac sets the liveness DeadTimeout as a fraction of the
	// fault-free completion (default 1/8).
	TimeoutFrac float64
	// SimWorkers partitions the fabric (0 = autotune); results are
	// byte-identical at any value.
	SimWorkers int
}

func (c FaultScenarioConfig) withDefaults() FaultScenarioConfig {
	if c.Mappers == 0 {
		c.Mappers = 8
	}
	if c.Reducers == 0 {
		c.Reducers = 2
	}
	if c.Vocab == 0 {
		c.Vocab = 300
	}
	if c.TimeoutFrac == 0 {
		c.TimeoutFrac = 1.0 / 8
	}
	return c
}

// FaultScenarioResult is one trial's outcome.
type FaultScenarioResult struct {
	Cfg FaultScenarioConfig
	// Ref is the fault-free completion; Rep the faulted run's report.
	RefCompletion netsim.Time
	Rep           *mapreduce.FTReport
	InflationX    float64
}

// faultsPlan is the figure's fabric: two racks, two spines — the smallest
// fabric with a spine-level failover path.
func faultsPlan() *topology.Plan {
	return topology.LeafSpine(2, 2, 6, netsim.LinkConfig{QueueBytes: 64 << 20})
}

func faultsCluster(cfg FaultScenarioConfig) (*mapreduce.Cluster, error) {
	return mapreduce.NewCluster(mapreduce.ClusterConfig{
		NumMappers:  cfg.Mappers,
		NumReducers: cfg.Reducers,
		Plan:        faultsPlan(),
		TableSize:   1024,
		Seed:        cfg.Seed,
		SimWorkers:  cfg.SimWorkers,
	})
}

func faultsSplits(cfg FaultScenarioConfig) ([][]string, error) {
	corpus, err := workload.Generate(workload.CorpusSpec{
		Seed:             cfg.Seed,
		Reducers:         cfg.Reducers,
		VocabPerReducer:  cfg.Vocab,
		MeanMultiplicity: 6,
		TableSize:        1024,
		CollisionFree:    true,
	})
	if err != nil {
		return nil, err
	}
	return corpus.Splits(cfg.Mappers), nil
}

// faultsRefs memoizes fault-free reference runs: every point of one trial
// shares the same reference (the fault knobs are zeroed out of the key),
// so the sweep pays for it once per (seed, size, workers) config.
var faultsRefs memo[FaultScenarioConfig, *mapreduce.FTReport]

func faultsReference(cfg FaultScenarioConfig) (*mapreduce.FTReport, error) {
	cfg.Crashes, cfg.LinkFlaps, cfg.Stragglers, cfg.TimeoutFrac = 0, 0, 0, 0
	return faultsRefs.get(cfg, func(cfg FaultScenarioConfig) (*mapreduce.FTReport, error) {
		cl, err := faultsCluster(cfg)
		if err != nil {
			return nil, err
		}
		splits, err := faultsSplits(cfg)
		if err != nil {
			return nil, err
		}
		// The schedule-less reference needs no recovery, so disarm the
		// round-timeout backstop (its fixed default would re-drive healthy
		// rounds once -scale pushes completion past it).
		return cl.RunJobFT(mapreduce.WordCount, splits, nil,
			mapreduce.FTConfig{RoundTimeout: time.Hour})
	})
}

// FaultScenario runs one fault-injection trial and returns its report.
// Deterministic in the config: the schedule, the fabric, the workload and
// every recovery decision derive from cfg.Seed and virtual time.
func FaultScenario(cfg FaultScenarioConfig) (*FaultScenarioResult, error) {
	cfg = cfg.withDefaults()
	ref, err := faultsReference(cfg)
	if err != nil {
		return nil, err
	}
	if ref.Completion <= 0 {
		return nil, fmt.Errorf("experiments: faults: degenerate reference completion %v", ref.Completion)
	}
	plan := faultsPlan()
	var links [][2]netsim.NodeID
	for _, l := range plan.Links {
		links = append(links, [2]netsim.NodeID{l.A, l.B})
	}
	sched, err := faults.Generate(faults.GenConfig{
		Seed:           cfg.Seed,
		Horizon:        ref.Completion,
		SwitchCrashes:  cfg.Crashes,
		LinkFlaps:      cfg.LinkFlaps,
		HostStragglers: cfg.Stragglers,
	}, plan.Switches, plan.Hosts[:cfg.Mappers], links)
	if err != nil {
		return nil, err
	}
	deadTimeout := time.Duration(float64(ref.Completion) * cfg.TimeoutFrac)
	if deadTimeout < time.Microsecond {
		deadTimeout = time.Microsecond
	}
	cl, err := faultsCluster(cfg)
	if err != nil {
		return nil, err
	}
	splits, err := faultsSplits(cfg)
	if err != nil {
		return nil, err
	}
	rep, err := cl.RunJobFT(mapreduce.WordCount, splits, sched, mapreduce.FTConfig{
		DeadTimeout: deadTimeout,
		// Rounds must be allowed to outlive the longest fault downtime
		// (Horizon/2) plus detection; anything stuck longer is re-driven.
		RoundTimeout: time.Duration(2*ref.Completion) + 8*deadTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: faults (seed %#x): %w", cfg.Seed, err)
	}
	return &FaultScenarioResult{
		Cfg:           cfg,
		RefCompletion: ref.Completion,
		Rep:           rep,
		InflationX:    stats.Ratio(float64(rep.Completion), float64(ref.Completion)),
	}, nil
}

func init() {
	type axis struct {
		faults      int
		timeoutFrac float64
		label       string
	}
	axes := []axis{
		{1, 1.0 / 8, "f1-t12pct"},
		{1, 1.0 / 3, "f1-t33pct"},
		{2, 1.0 / 8, "f2-t12pct"},
		{2, 1.0 / 3, "f2-t33pct"},
	}
	pts := make([]Point, len(axes))
	for i, a := range axes {
		pts[i] = Point{Label: a.label, X: float64(a.faults*100) + 100*a.timeoutFrac}
	}
	Register(&Spec{
		Name:   "faults",
		Title:  "Extension: fault injection & aggregation-tree failover — fault rate × recovery timeout (paper: failures left open)",
		XLabel: "faults/timeout",
		Points: pts,
		Metrics: []string{
			"completion_inflation_x",
			"failovers",
			"lost_aggregates",
			"recovered_pairs",
		},
		Run: func(pt Point, tr Trial) (map[string]float64, error) {
			var a axis
			for _, cand := range axes {
				if pt.Label == cand.label {
					a = cand
				}
			}
			res, err := FaultScenario(FaultScenarioConfig{
				Seed:        tr.Seed,
				Vocab:       scaledInt(300, tr.Scale, 60),
				Crashes:     a.faults,
				LinkFlaps:   a.faults,
				Stragglers:  a.faults,
				TimeoutFrac: a.timeoutFrac,
				SimWorkers:  tr.SimWorkers,
			})
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"completion_inflation_x": res.InflationX,
				"failovers":              float64(res.Rep.Failovers),
				"lost_aggregates":        float64(res.Rep.LostPairs),
				"recovered_pairs":        float64(res.Rep.RecoveredPairs),
			}, nil
		},
	})
}
