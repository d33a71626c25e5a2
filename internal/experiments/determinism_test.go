package experiments

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/daiet/daiet/internal/topology"
)

// The runner's contract: for the same seed, every figure entry point must
// produce byte-identical summaries and counters whether its shards run
// sequentially (parallelism 1) or across the full worker pool. Wall-clock
// fields (reduce-phase timing) are the only nondeterministic quantities and
// are excluded where they appear.

// degrees are the parallelism levels compared against the sequential run.
var degrees = []int{runtime.GOMAXPROCS(0), 3}

func assertIdentical(t *testing.T, name, seq, par string, degree int) {
	t.Helper()
	if seq != par {
		t.Fatalf("%s diverged at parallelism %d:\nsequential: %s\nparallel:   %s",
			name, degree, seq, par)
	}
}

func TestFigure3Deterministic(t *testing.T) {
	// Everything except the wall-clock reduce timings must match exactly:
	// the summaries, raw samples, corpus facts, and switch counters.
	render := func(parallelism int) string {
		res, err := Figure3(Figure3Config{Seed: 1, Scale: 0.2, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v %+v %+v data=%v udp=%v tcp=%v words=%d uniq=%d in=%d spill=%d",
			res.DataReduction, res.PacketsVsUDP, res.PacketsVsTCP,
			res.Samples.DataReduction, res.Samples.PacketsVsUDP, res.Samples.PacketsVsTCP,
			res.TotalWords, res.UniqueWords, res.PairsIn, res.PairsSpilled)
	}
	seq := render(1)
	for _, d := range degrees {
		assertIdentical(t, "figure 3", seq, render(d), d)
	}
}

// TestSpecEngineDeterministic extends the contract to the sweep engine:
// every registered figure, executed through Spec.Execute, must produce
// identical results (up to declared Volatile metrics) at any parallelism
// degree. This covers the figures' own inner fan-out too, since the specs
// pin it to 1 and put all parallelism in the grid.
func TestSpecEngineDeterministic(t *testing.T) {
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			cfg := RunConfig{Seed: 7, Seeds: 2, Scale: 0.08, Parallelism: 1}
			res, err := spec.Execute(cfg)
			if err != nil {
				t.Fatal(err)
			}
			seq := res.DeterministicString(spec.Volatile)
			for _, d := range degrees {
				cfg.Parallelism = d
				res, err := spec.Execute(cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertIdentical(t, spec.Name, seq, res.DeterministicString(spec.Volatile), d)
			}
		})
	}
}

func TestMultiRackDeterministic(t *testing.T) {
	render := func(parallelism int) string {
		res, err := MultiRack(MultiRackConfig{Seed: 5, Vocab: 300, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", *res)
	}
	seq := render(1)
	for _, d := range degrees {
		assertIdentical(t, "multirack", seq, render(d), d)
	}
}

// ---- intra-simulation (partitioned event engine) conformance ----
//
// The contract extends inside a single simulation: partitioning one fabric
// across event-engine domains (netsim.Network.Partition) must leave every
// non-volatile result byte-identical. simWorkerCounts are the domain counts
// compared against the sequential engine.

var simWorkerCounts = []int{2, 4}

// TestSpecEngineSimWorkersDeterministic is the registry-wide conformance
// suite: every figure, executed through Spec.Execute with Partitions(1) vs
// Partitions(4) fabrics (and with the trial-level worker pool layered on
// top), produces byte-identical non-volatile metrics.
func TestSpecEngineSimWorkersDeterministic(t *testing.T) {
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			cfg := RunConfig{Seed: 7, Seeds: 2, Scale: 0.08, Parallelism: 1, SimWorkers: 1}
			res, err := spec.Execute(cfg)
			if err != nil {
				t.Fatal(err)
			}
			seq := res.DeterministicString(spec.Volatile)
			for _, w := range simWorkerCounts {
				for _, par := range []int{1, 3} {
					cfg.SimWorkers, cfg.Parallelism = w, par
					res, err := spec.Execute(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := res.DeterministicString(spec.Volatile)
					if seq != got {
						t.Fatalf("%s diverged at sim-workers %d (parallelism %d):\nsequential: %s\npartitioned: %s",
							spec.Name, w, par, seq, got)
					}
				}
			}
		})
	}
}

// TestMultiRackSimWorkersDeterministic compares the full result struct —
// every counter, not just the registry metrics — across domain counts.
func TestMultiRackSimWorkersDeterministic(t *testing.T) {
	render := func(simWorkers int) string {
		res, err := MultiRack(MultiRackConfig{Seed: 5, Vocab: 300, Parallelism: 1, SimWorkers: simWorkers})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", *res)
	}
	seq := render(1)
	for _, w := range simWorkerCounts {
		assertIdentical(t, "multirack sim-workers", seq, render(w), w)
	}
}

// TestIncastSimWorkersDeterministic covers the loss/retransmission path:
// drop counts, retransmissions and virtual completion time must survive
// partitioning bit-for-bit even under synchronized fan-in with overflowing
// queues.
func TestIncastSimWorkersDeterministic(t *testing.T) {
	render := func(simWorkers int) string {
		res, err := Incast(IncastConfig{
			Seed: 3, Senders: 8, PairsPerSender: 300,
			QueueBytes: 4096, SimWorkers: simWorkers,
		})
		if err != nil {
			t.Fatal(err)
		}
		res.Cfg.SimWorkers = 0 // the knob itself is the only allowed difference
		return fmt.Sprintf("%+v", *res)
	}
	seq := render(1)
	for _, w := range simWorkerCounts {
		assertIdentical(t, "incast sim-workers", seq, render(w), w)
	}
}

// TestSpecEngineRecutDeterministic extends the registry-wide conformance
// suite with dynamic re-partitioning: every figure, executed with a live
// measured-skew re-cut policy on a seeded random schedule, produces
// byte-identical non-volatile metrics to the same figure with a static
// cut, at 2 and 4 domains. Figures that pin their own engine configuration
// (parallel-sim, megaincast) ignore the knob and pass trivially; every
// fabric-building figure that honors Trial.Recut is exercised for real.
func TestSpecEngineRecutDeterministic(t *testing.T) {
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			cfg := RunConfig{Seed: 7, Seeds: 2, Scale: 0.08, Parallelism: 1, SimWorkers: 1}
			res, err := spec.Execute(cfg)
			if err != nil {
				t.Fatal(err)
			}
			static := res.DeterministicString(spec.Volatile)
			for _, w := range simWorkerCounts {
				for _, recutSeed := range []uint64{1, 42} {
					cfg.SimWorkers = w
					cfg.Recut = topology.RecutConfig{
						Every:      3 * time.Microsecond,
						MinSkewPct: 0, // re-cut on any measured imbalance
						Seed:       recutSeed,
					}
					res, err := spec.Execute(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := res.DeterministicString(spec.Volatile)
					if static != got {
						t.Fatalf("%s diverged under dynamic re-cut (workers %d, recut seed %d):\nstatic: %s\nre-cut: %s",
							spec.Name, w, recutSeed, static, got)
					}
				}
			}
		})
	}
}
