package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/daiet/daiet/internal/stats"
)

// smokeCfg is the miniature configuration every registry-wide test runs:
// two seeds so confidence intervals are non-degenerate, a small scale so
// the full registry stays fast.
var smokeCfg = RunConfig{Seed: 7, Seeds: 2, Scale: 0.08, Parallelism: 0}

// wantSpecs is the closed list of figures the registry must serve: the
// paper's evaluation, the ablations, and the extensions. A new figure file
// extends this list.
var wantSpecs = []string{
	"ablation-combiner",
	"ablation-key-width",
	"ablation-pairs-per-packet",
	"ablation-table-size",
	"bigincast",
	"faults",
	"fig1-workers",
	"fig1a",
	"fig1b",
	"fig1c",
	"fig3",
	"incast",
	"incast-jitter",
	"megaincast",
	"multirack",
	"parallel-sim",
	"syncproto",
	"tenants",
}

func TestRegistryEnumeratesEveryFigure(t *testing.T) {
	specs := Specs()
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	if !reflect.DeepEqual(names, wantSpecs) {
		t.Fatalf("registry = %v\nwant      %v", names, wantSpecs)
	}
	for _, name := range wantSpecs {
		if Lookup(name) == nil {
			t.Fatalf("Lookup(%q) = nil", name)
		}
	}
	if Lookup("no-such-figure") != nil {
		t.Fatal("Lookup of unknown figure must be nil")
	}
}

// TestEverySpecRunsAndRoundTrips executes the whole registry at smoke size
// and round-trips each result through the generic JSON emitter — the
// schema BENCH_results.json embeds.
func TestEverySpecRunsAndRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("registry-wide smoke run")
	}
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			res, err := spec.Execute(smokeCfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Points) != len(spec.Points) {
				t.Fatalf("%d points, want %d", len(res.Points), len(spec.Points))
			}
			for _, pt := range res.Points {
				if len(pt.Metrics) != len(spec.Metrics) {
					t.Fatalf("point %s: %d metrics, want %d", pt.Label, len(pt.Metrics), len(spec.Metrics))
				}
				for _, m := range spec.Metrics {
					e, ok := pt.Metrics[m]
					if !ok {
						t.Fatalf("point %s missing metric %q", pt.Label, m)
					}
					if e.N != smokeCfg.Seeds {
						t.Fatalf("point %s metric %s: n=%d, want %d", pt.Label, m, e.N, smokeCfg.Seeds)
					}
					if !(e.Lo <= e.Mean && e.Mean <= e.Hi) {
						t.Fatalf("point %s metric %s: interval %v not ordered", pt.Label, m, e)
					}
				}
			}
			// Headline flattening: unique keys, one per (point, metric).
			head := res.Headline()
			if len(head) != len(spec.Points)*len(spec.Metrics) {
				t.Fatalf("headline has %d entries, want %d", len(head), len(spec.Points)*len(spec.Metrics))
			}
			// JSON round-trip through the generic emitter.
			blob, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back FigureResult
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*res, back) {
				t.Fatalf("JSON round-trip changed the result:\n%+v\n%+v", *res, back)
			}
			// The generic table renderer covers every metric column.
			var buf bytes.Buffer
			res.WriteTable(&buf)
			for _, m := range spec.Metrics {
				if !strings.Contains(buf.String(), m) {
					t.Fatalf("table missing column %q:\n%s", m, buf.String())
				}
			}
		})
	}
}

func TestExecuteRejectsMissingMetric(t *testing.T) {
	s := &Spec{
		Name:    "broken",
		Points:  []Point{{Label: "p"}},
		Metrics: []string{"present", "absent"},
		Run: func(Point, Trial) (map[string]float64, error) {
			return map[string]float64{"present": 1}, nil
		},
	}
	if _, err := s.Execute(RunConfig{Seeds: 1}); err == nil ||
		!strings.Contains(err.Error(), "absent") {
		t.Fatalf("missing metric not reported: %v", err)
	}
}

func TestRegisterValidates(t *testing.T) {
	run := func(Point, Trial) (map[string]float64, error) { return nil, nil }
	cases := map[string]*Spec{
		"empty name": {Points: []Point{{}}, Metrics: []string{"m"}, Run: run},
		"no run":     {Name: "x1", Points: []Point{{}}, Metrics: []string{"m"}},
		"no points":  {Name: "x2", Metrics: []string{"m"}, Run: run},
		"no metrics": {Name: "x3", Points: []Point{{}}, Run: run},
		"duplicate":  {Name: "fig3", Points: []Point{{}}, Metrics: []string{"m"}, Run: run},
		"volatile not declared": {Name: "x4", Points: []Point{{}}, Metrics: []string{"m"},
			Volatile: []string{"other"}, Run: run},
	}
	for name, s := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Register did not panic", name)
				}
			}()
			Register(s)
		}()
	}
}

func TestHeadlineKeys(t *testing.T) {
	mk := func(labels ...string) *FigureResult {
		r := &FigureResult{MetricNames: []string{"m"}}
		for _, l := range labels {
			r.Points = append(r.Points, PointResult{
				Point:   Point{Label: l},
				Metrics: map[string]stats.Estimate{"m": {N: 1}},
			})
		}
		return r
	}
	// Single point: bare metric name.
	if head := mk("only").Headline(); len(head) != 1 {
		t.Fatalf("headline %v", head)
	} else if _, ok := head["m"]; !ok {
		t.Fatalf("single-point key not bare: %v", head)
	}
	// Sweep: qualified, sanitized keys.
	head := mk("table=64", "Table 128").Headline()
	for _, want := range []string{"m_table_64", "m_table_128"} {
		if _, ok := head[want]; !ok {
			t.Fatalf("missing key %q in %v", want, head)
		}
	}
}

// TestLabelledSweepsRejectUnknownPoints: every spec that looks its sweep
// entry up by point label fails on a label it did not register, instead of
// running some default point.
func TestLabelledSweepsRejectUnknownPoints(t *testing.T) {
	for _, name := range []string{"bigincast", "megaincast", "syncproto", "tenants"} {
		name := name
		t.Run(name, func(t *testing.T) {
			_, err := Lookup(name).Run(Point{Label: "no-such-point"}, Trial{Seed: 1, Scale: 0.08, SimWorkers: 1})
			if err == nil || !strings.Contains(err.Error(), `unknown point "no-such-point"`) {
				t.Fatalf("Run with an unknown label: err = %v", err)
			}
		})
	}
}
