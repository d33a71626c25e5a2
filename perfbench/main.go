// Command perfbench is the repository's host-performance benchmark. It runs
// one workload as a closed loop in a single process — each iteration starts
// when the previous one has finished — times every call into the layers
// from outside, checks every iteration's output, and prints one JSON result
// line last:
//
//	go run . --workload megaincast --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a traced run. README.md explains the
// workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/stats"
)

// outcome is what one iteration produced besides its timings.
type outcome struct {
	// fingerprint is the deterministic summary of the simulated result:
	// every iteration of a run must repeat the first one's.
	fingerprint  string
	frames       uint64 // frames transmitted, network workloads
	steps        int    // training steps, mltrain
	completion   netsim.Time
	reductionPct float64
	overlapPct   float64
	// layer holds per-layer counters, and in a traced iteration the
	// per-layer times the workload derives itself.
	layer map[string]float64
}

// benchWorkload is one workload of the benchmark.
type benchWorkload interface {
	// iterate runs one iteration, timing its calls through t.
	iterate(t *timer) (*outcome, error)
	// crossCheck compares the first iteration against an independent run
	// of the same configuration. It runs once per run, outside timing.
	crossCheck(first *outcome) error
}

var workloadNames = []string{"wordcount", "megaincast", "bigincast", "mltrain"}

func newWorkload(name string, seed uint64) (benchWorkload, error) {
	switch name {
	case "wordcount":
		w, err := newWordcount(seed)
		if err != nil {
			return nil, err
		}
		return w, nil
	case "megaincast":
		return newIncast(megaIncast, seed), nil
	case "bigincast":
		return newIncast(bigIncast, seed), nil
	case "mltrain":
		return newMLTrain(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// metric is a reported metric's name and unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports each
// of them, and none is ever zero.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"simulate_s", "s"},
	{"alloc_mb", "MiB"},
	{"allocs_per_iter", "count"},
	{"live_heap_mb", "MiB"},
	{"data_reduction_pct", "%"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// reach reports 0.
var perLayer = []metric{
	{"workload.generate_s", "s"},
	{"mapreduce.cluster_s", "s"},
	{"mapreduce.job_s.daiet", "s"},
	{"mapreduce.job_s.udp-baseline", "s"},
	{"mapreduce.job_s.tcp-baseline", "s"},
	{"mapreduce.reduce_s.daiet", "s"},
	{"mapreduce.reduce_s.udp-baseline", "s"},
	{"mapreduce.reduce_s.tcp-baseline", "s"},
	{"topology.plan_s", "s"},
	{"topology.realize_s", "s"},
	{"topology.partition_s", "s"},
	{"controller.routing_s", "s"},
	{"controller.tree_s", "s"},
	{"core.endpoints_s", "s"},
	{"core.inject_s", "s"},
	{"netsim.run_s", "s"},
	{"netsim.self_s", "s"},
	{"netsim.events", "count"},
	{"netsim.ns_per_event", "ns"},
	{"netsim.peak_arena_kb", "KiB"},
	{"netsim.drop_ratio", "ratio"},
	{"netsim.pool_highwater_pct", "%"},
	{"netsim.sync_barriers", "count"},
	{"netsim.sync_windows", "count"},
	{"netsim.idle_window_ratio", "ratio"},
	{"netsim.mean_horizon_us", "us"},
	{"dataplane.handle_s", "s"},
	{"dataplane.frames", "count"},
	{"dataplane.ns_per_frame", "ns"},
	{"transport.handle_s", "s"},
	{"transport.frames", "count"},
	{"core.pairs_in", "count"},
	{"core.combine_ratio", "ratio"},
	{"core.pairs_spilled", "count"},
	{"core.hop_retransmissions", "count"},
	{"core.flush_stalls", "count"},
	{"mlps.dataset_s", "s"},
	{"mlps.train_s", "s"},
	{"mlps.gradient_ns", "ns"},
	{"mlps.optimizer_ns", "ns"},
	{"verify_s", "s"},
	{"setup.allocs", "count"},
	{"simulate.allocs", "count"},
	{"verify.allocs", "count"},
	{"trace.overhead_s", "s"},
	{"trace.coverage_pct", "%"},
	{"frames_per_s", "1/s"},
	{"train_steps_per_s", "1/s"},
	{"allocs_per_frame", "count"},
	{"sim_completion_us", "us"},
	{"overlap_pct", "%"},
	{"error_rate", "ratio"},
}

const (
	// minIterations bounds a measuring loop from below when one iteration
	// outlasts its time budget.
	minIterations = 3
	// minCoveragePct is the share of a traced iteration's wall time its
	// layer calls must account for.
	minCoveragePct = 90
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the arguments, measures, and prints the result. It returns
// the exit code: 2 for bad arguments, otherwise 0 once a result is printed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "measuring time of the run")
	traceFlag := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	traced := *traceFlag == 1
	r := measure(w, *seconds, traced)
	// The cross-check runs after measuring, so what it leaves on the heap
	// is not in any measured iteration.
	r.crossCheck(w)
	if r.tr != nil {
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := r.tr.write(path, *name, *seed); err != nil {
			r.errs = append(r.errs, err.Error())
		} else {
			r.notes = append(r.notes, "spans written to "+path)
		}
	}
	r.print(stdout, stderr, *name, *seed)
	return 0
}

// sample is one measured iteration.
type sample struct {
	wall, setup, simulate         float64 // seconds
	allocBytes, mallocs, liveHeap float64
	out                           *outcome
	err                           error
	// layer holds the per-layer metrics of a traced iteration.
	layer map[string]float64
}

func runIteration(w benchWorkload, tr *trace, iter int) sample {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := newTimer(tr, iter)
	out, err := w.iterate(t)
	t.finish()
	runtime.ReadMemStats(&after)
	s := sample{
		wall:       t.wall().Seconds(),
		setup:      t.phase[phaseSetup].Seconds(),
		simulate:   t.phase[phaseSimulate].Seconds(),
		allocBytes: float64(after.TotalAlloc - before.TotalAlloc),
		mallocs:    float64(after.Mallocs - before.Mallocs),
		liveHeap:   float64(t.liveHeap),
		out:        out,
		err:        err,
	}
	if tr != nil && out != nil {
		s.layer = map[string]float64{}
		for name, d := range t.layer {
			s.layer[metricName(name)] = d.Seconds()
		}
		for k, v := range out.layer {
			s.layer[k] = v
		}
		for p := phase(0); p < nPhases; p++ {
			s.layer[phaseNames[p]+".allocs"] = float64(t.allocs[p])
		}
		s.layer["trace.coverage_pct"] = 100 * stats.Ratio(t.covered.Seconds(), s.wall)
		if events := out.layer["netsim.events"]; events > 0 && s.layer["netsim.run_s"] > 0 {
			s.layer["netsim.ns_per_event"] = 1e9 * s.layer["netsim.run_s"] / events
		}
	}
	return s
}

// metricName turns a call name into its time metric: "netsim.run" into
// "netsim.run_s", "mapreduce.job.daiet" into "mapreduce.job_s.daiet".
func metricName(call string) string {
	parts := strings.SplitN(call, ".", 3)
	last := min(len(parts), 2) - 1
	parts[last] += "_s"
	return strings.Join(parts, ".")
}

// result is everything a run measured.
type result struct {
	// first is the warm-up iteration's outcome, which every later
	// iteration must reproduce.
	first             *outcome
	untraced, tracedS []sample
	attempted, failed int
	errs, notes       []string

	traced bool
	tr     *trace
}

// measure runs a checked warm-up iteration, then measures for the given
// time: untraced, or half untraced and half traced, so the traced run can
// report its own overhead.
func measure(w benchWorkload, seconds float64, traced bool) *result {
	r := &result{traced: traced}
	warm := runIteration(w, nil, 0)
	r.attempted++
	if warm.err != nil {
		r.failed++
		r.errs = append(r.errs, fmt.Sprintf("warm-up iteration: %v", warm.err))
		return r
	}
	r.first = warm.out
	if !traced {
		r.untraced = r.loop(w, nil, seconds, 1)
		return r
	}
	r.untraced = r.loop(w, nil, seconds/2, 1)
	r.tr = &trace{origin: time.Now()}
	r.tracedS = r.loop(w, r.tr, seconds/2, 1+len(r.untraced))
	for _, s := range r.tracedS {
		if s.layer != nil && s.layer["trace.coverage_pct"] < minCoveragePct {
			r.errs = append(r.errs, fmt.Sprintf("traced layer calls cover %.1f%% of an iteration, want >= %d%%",
				s.layer["trace.coverage_pct"], minCoveragePct))
			break
		}
	}
	return r
}

// loop runs iterations for budget seconds (at least minIterations), checking
// each against the warm-up's fingerprint.
func (r *result) loop(w benchWorkload, tr *trace, budget float64, firstIter int) []sample {
	var out []sample
	start := time.Now()
	for len(out) < minIterations || time.Since(start).Seconds() < budget {
		iter := firstIter + len(out)
		s := runIteration(w, tr, iter)
		r.attempted++
		if s.err == nil && s.out.fingerprint != r.first.fingerprint {
			s.err = fmt.Errorf("simulated %s, the warm-up simulated %s", s.out.fingerprint, r.first.fingerprint)
		}
		if s.err != nil {
			r.failed++
			r.errs = append(r.errs, fmt.Sprintf("iteration %d: %v", iter, s.err))
		}
		out = append(out, s)
	}
	return out
}

// crossCheck runs the workload's cross-check against the warm-up outcome.
func (r *result) crossCheck(w benchWorkload) {
	if r.first == nil {
		return
	}
	if err := w.crossCheck(r.first); err != nil {
		r.errs = append(r.errs, "cross-check: "+err.Error())
	}
}

func column(ss []sample, f func(sample) float64) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return xs
}

func median(ss []sample, f func(sample) float64) float64 { return stats.Median(column(ss, f)) }

func wallOf(s sample) float64 { return s.wall }

// endToEndValues are the untraced medians. Every iteration's timings count,
// a failed iteration's too.
func (r *result) endToEndValues() map[string]float64 {
	u := r.untraced
	v := map[string]float64{
		"wall_s":          median(u, wallOf),
		"setup_s":         median(u, func(s sample) float64 { return s.setup }),
		"simulate_s":      median(u, func(s sample) float64 { return s.simulate }),
		"alloc_mb":        median(u, func(s sample) float64 { return s.allocBytes }) / (1 << 20),
		"allocs_per_iter": median(u, func(s sample) float64 { return s.mallocs }),
		"live_heap_mb":    median(u, func(s sample) float64 { return s.liveHeap }) / (1 << 20),
	}
	if r.first != nil {
		v["data_reduction_pct"] = r.first.reductionPct
	}
	return v
}

// workloadValues are the metrics only some workloads have. They come from
// the untraced iterations, and every run prints them in its header.
func (r *result) workloadValues() map[string]float64 {
	v := map[string]float64{"error_rate": stats.Ratio(float64(r.failed), float64(r.attempted))}
	if r.first == nil {
		return v
	}
	simulate := median(r.untraced, func(s sample) float64 { return s.simulate })
	mallocs := median(r.untraced, func(s sample) float64 { return s.mallocs })
	v["frames_per_s"] = stats.Ratio(float64(r.first.frames), simulate)
	v["train_steps_per_s"] = stats.Ratio(float64(r.first.steps), simulate)
	v["allocs_per_frame"] = stats.Ratio(mallocs, float64(r.first.frames))
	v["sim_completion_us"] = float64(r.first.completion) / 1e3
	v["overlap_pct"] = r.first.overlapPct
	return v
}

// perLayerValues are the traced medians, plus the tracing overhead and the
// worst iteration's span coverage.
func (r *result) perLayerValues() map[string]float64 {
	v := r.workloadValues()
	v["trace.coverage_pct"], _ = stats.MinMax(column(r.tracedS, func(s sample) float64 { return s.layer["trace.coverage_pct"] }))
	v["trace.overhead_s"] = median(r.tracedS, wallOf) - median(r.untraced, wallOf)
	for _, m := range perLayer {
		if _, ok := v[m.name]; ok {
			continue
		}
		var xs []float64
		for _, s := range r.tracedS {
			if s.layer != nil {
				xs = append(xs, s.layer[m.name])
			}
		}
		v[m.name] = stats.Median(xs)
	}
	return v
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the environment header and, last, the JSON result line.
func (r *result) print(stdout, stderr io.Writer, name string, seed uint64) {
	for _, e := range r.errs {
		fmt.Fprintln(stderr, "perfbench: FAIL:", e)
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d trace=%t nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		name, seed, r.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Fprintf(stdout, "# iterations: 1 warm-up, %d untraced, %d traced; %d attempted, %d failed\n",
		len(r.untraced), len(r.tracedS), r.attempted, r.failed)
	if len(r.untraced) > 0 {
		ws := stats.Summarize(column(r.untraced, wallOf))
		fmt.Fprintf(stdout, "# wall_s quartiles (context, not gated): q1=%.6f median=%.6f q3=%.6f\n", ws.Q1, ws.Median, ws.Q3)
	}
	wv := r.workloadValues()
	var parts []string
	for _, k := range []string{"frames_per_s", "train_steps_per_s", "allocs_per_frame", "sim_completion_us", "overlap_pct", "error_rate"} {
		parts = append(parts, fmt.Sprintf("%s=%.6g", k, wv[k]))
	}
	fmt.Fprintf(stdout, "# %s\n", strings.Join(parts, " "))
	if r.first != nil {
		fmt.Fprintf(stdout, "# fingerprint: %s\n", r.first.fingerprint)
	}
	for _, n := range r.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}

	values, list := r.endToEndValues(), endToEnd
	if r.traced {
		values, list = r.perLayerValues(), perLayer
	}
	metrics := map[string]metricValue{}
	for _, m := range list {
		x := values[m.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		metrics[m.name] = metricValue{Value: x, Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(r.errs) == 0, r.attempted, r.failed, metrics})
	if err != nil {
		panic(err) // only finite numbers and strings are marshalled
	}
	fmt.Fprintln(stdout, string(line))
}

// write saves the run's spans and node totals as one JSON document.
func (tr *trace) write(path, name string, seed uint64) error {
	data, err := json.Marshal(struct {
		Workload   string      `json:"workload"`
		Seed       uint64      `json:"seed"`
		Spans      []span      `json:"spans"`
		NodeTotals []nodeTotal `json:"node_totals"`
	}{name, seed, tr.spans, tr.nodes})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
