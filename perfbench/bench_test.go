package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smallIncast is a lossy two-domain fan-in small enough for the race
// detector: pool drops, switch replay and partitioned sync all occur.
var smallIncast = incastConfig{senders: 32, racks: 2, spines: 1, pairs: 120,
	vocab: 512, table: 128, poolKiB: 8, alpha: 2, domains: 2}

// TestTracedIncastRaceFree runs the traced decorators under two engine
// domains. Run it with -race: each node's counters must be written by one
// domain goroutine only, and the merged totals must equal the frames the
// links delivered (iterate fails otherwise) on every run.
func TestTracedIncastRaceFree(t *testing.T) {
	w := newIncast(smallIncast, 7)
	untraced, err := w.iterate(newTimer(nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(untraced.fingerprint, "drops=") || strings.Contains(untraced.fingerprint, "drops=0 ") {
		t.Fatalf("workload is not lossy: %s", untraced.fingerprint)
	}
	tr := &trace{}
	var frames []float64
	for i := 1; i <= 2; i++ {
		out, err := w.iterate(newTimer(tr, i))
		if err != nil {
			t.Fatal(err)
		}
		if out.fingerprint != untraced.fingerprint {
			t.Fatalf("traced run simulated %s, untraced %s", out.fingerprint, untraced.fingerprint)
		}
		frames = append(frames, out.layer["dataplane.frames"])
	}
	if frames[0] == 0 || frames[0] != frames[1] {
		t.Fatalf("switch frame counts %v, want equal and non-zero", frames)
	}
	if err := w.crossCheck(untraced); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables here and in
// BENCHMARK.json the same, names and units in order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  []struct{ Name, Unit string }
		want []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", c.name, len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					c.name, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}

func TestMetricName(t *testing.T) {
	for call, want := range map[string]string{
		"verify":              "verify_s",
		"netsim.run":          "netsim.run_s",
		"mapreduce.job.daiet": "mapreduce.job_s.daiet",
	} {
		if got := metricName(call); got != want {
			t.Errorf("metricName(%q) = %q, want %q", call, got, want)
		}
	}
}

// TestBadArgumentsPrintNoResult checks that a run that cannot start exits
// non-zero without a result line.
func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "mltrain", "--seed", "1", "--seconds", "1", "--trace", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want a non-zero code and no output", args, code, stdout.String())
		}
	}
}
