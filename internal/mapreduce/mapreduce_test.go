package mapreduce

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/stats"
	"github.com/daiet/daiet/internal/wire"
	"github.com/daiet/daiet/internal/workload"
)

// miniCorpus builds a small calibrated corpus and its splits.
func miniCorpus(t *testing.T, mappers, reducers, vocabPer int, mult float64, tableSize int) ([][]string, *workload.Corpus) {
	t.Helper()
	c, err := workload.Generate(workload.CorpusSpec{
		Seed:             11,
		Reducers:         reducers,
		VocabPerReducer:  vocabPer,
		MeanMultiplicity: mult,
		TableSize:        tableSize,
		CollisionFree:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c.Splits(mappers), c
}

func newTestCluster(t *testing.T, mappers, reducers, tableSize int) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		NumMappers:  mappers,
		NumReducers: reducers,
		TableSize:   tableSize,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestWordCountDAIETMatchesReference(t *testing.T) {
	const mappers, reducers, tableSize = 6, 3, 512
	splits, corpus := miniCorpus(t, mappers, reducers, 200, 6, tableSize)
	cl := newTestCluster(t, mappers, reducers, tableSize)
	res, err := cl.RunJob(WordCount, splits, ModeDAIET)
	if err != nil {
		t.Fatal(err)
	}
	// RunJob verifies outputs internally; here check global coverage: the
	// union of reducer outputs covers the whole vocabulary.
	total := 0
	for _, r := range res.PerReducer {
		total += r.UniqueKeys
	}
	if total != corpus.UniqueWords {
		t.Fatalf("outputs cover %d keys, corpus has %d", total, corpus.UniqueWords)
	}
	if res.TotalPairsIn != uint64(corpus.TotalWords) {
		t.Fatalf("pairs in %d, words %d", res.TotalPairsIn, corpus.TotalWords)
	}
}

func TestWordCountAllModesAgree(t *testing.T) {
	const mappers, reducers, tableSize = 4, 2, 512
	splits, _ := miniCorpus(t, mappers, reducers, 150, 5, tableSize)

	outputs := map[Mode][][]core.KV{}
	for _, mode := range []Mode{ModeDAIET, ModeUDPBaseline, ModeTCPBaseline} {
		cl := newTestCluster(t, mappers, reducers, tableSize)
		res, err := cl.RunJob(WordCount, splits, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		var per [][]core.KV
		for _, r := range res.PerReducer {
			per = append(per, r.Output)
		}
		outputs[mode] = per
	}
	ref := outputs[ModeTCPBaseline]
	for _, mode := range []Mode{ModeDAIET, ModeUDPBaseline} {
		for ri := range ref {
			a, b := ref[ri], outputs[mode][ri]
			if len(a) != len(b) {
				t.Fatalf("%v reducer %d: %d vs %d keys", mode, ri, len(b), len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%v reducer %d idx %d: %+v vs %+v", mode, ri, i, b[i], a[i])
				}
			}
		}
	}
}

func TestFigure3ShapeMiniature(t *testing.T) {
	// A scaled-down Figure 3: mean multiplicity ~8.3 must produce ~88% data
	// reduction, ~90% packet reduction vs the UDP baseline, and a positive
	// packet reduction vs TCP at small MSS.
	const mappers, reducers, tableSize = 8, 4, 1024
	splits, _ := miniCorpus(t, mappers, reducers, 600, 8.3, tableSize)

	run := func(mode Mode) *Result {
		cl := newTestCluster(t, mappers, reducers, tableSize)
		res, err := cl.RunJob(WordCount, splits, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return res
	}
	daiet := run(ModeDAIET)
	udp := run(ModeUDPBaseline)
	tcp := run(ModeTCPBaseline)

	var dataRed, pktRedUDP []float64
	for i := range daiet.PerReducer {
		dataRed = append(dataRed,
			stats.ReductionPct(float64(udp.PerReducer[i].PayloadBytes), float64(daiet.PerReducer[i].PayloadBytes)))
		pktRedUDP = append(pktRedUDP,
			stats.ReductionPct(float64(udp.PerReducer[i].PacketsReceived), float64(daiet.PerReducer[i].PacketsReceived)))
	}
	dr := stats.Summarize(dataRed)
	pr := stats.Summarize(pktRedUDP)
	if dr.Median < 80 || dr.Median > 95 {
		t.Fatalf("data reduction median %.1f%% outside [80, 95]", dr.Median)
	}
	if pr.Median < 80 || pr.Median > 95 {
		t.Fatalf("packet reduction vs UDP median %.1f%% outside [80, 95]", pr.Median)
	}
	// TCP receives far fewer packets per byte (MSS 1460 vs 10 pairs), but
	// aggregation should still not lose to it by more than the MSS ratio.
	for i := range daiet.PerReducer {
		if daiet.PerReducer[i].PacketsReceived == 0 || tcp.PerReducer[i].PacketsReceived == 0 {
			t.Fatal("zero packet count")
		}
	}
}

func TestReduceSortAll(t *testing.T) {
	sum, _ := core.FuncByID(core.AggSum)
	in := []core.KV{{Key: "b", Value: 1}, {Key: "a", Value: 2}, {Key: "b", Value: 3}, {Key: "a", Value: 5}}
	out, dur := reduceSortAll(in, sum)
	if dur < 0 {
		t.Fatal("negative duration")
	}
	want := []core.KV{{Key: "a", Value: 7}, {Key: "b", Value: 4}}
	if len(out) != 2 || out[0] != want[0] || out[1] != want[1] {
		t.Fatalf("got %+v", out)
	}
	if got, _ := reduceSortAll(nil, sum); len(got) != 0 {
		t.Fatal("empty input")
	}
}

func TestReduceMergeRuns(t *testing.T) {
	sum, _ := core.FuncByID(core.AggSum)
	runs := [][]core.KV{
		{{Key: "a", Value: 1}, {Key: "c", Value: 2}},
		{{Key: "a", Value: 3}, {Key: "b", Value: 4}},
		{},
		{{Key: "c", Value: 5}},
	}
	out, _ := reduceMergeRuns(runs, sum)
	want := []core.KV{{Key: "a", Value: 4}, {Key: "b", Value: 4}, {Key: "c", Value: 7}}
	if len(out) != len(want) {
		t.Fatalf("got %+v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("idx %d: got %+v want %+v", i, out[i], want[i])
		}
	}
}

func TestSpillRecordsRoundtrip(t *testing.T) {
	sp := newSpill(wire.DefaultGeometry, 0)
	for i := 0; i < 10; i++ {
		if err := sp.add(fmt.Sprintf("key%02d", 9-i), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if sp.n != 10 {
		t.Fatalf("n %d", sp.n)
	}
	k, v := sp.record(0)
	if string(wire.TrimKey(k)) != "key09" || v != 0 {
		t.Fatalf("record 0: %q %d", wire.TrimKey(k), v)
	}
	sp.sortRecords()
	prev := ""
	for i := 0; i < sp.n; i++ {
		k, _ := sp.record(i)
		ks := string(wire.TrimKey(k))
		if ks < prev {
			t.Fatalf("not sorted at %d: %q < %q", i, ks, prev)
		}
		prev = ks
	}
	if err := sp.add("this-key-is-way-too-long", 1); err == nil {
		t.Fatal("oversized key must fail")
	}
}

func TestDecodeRun(t *testing.T) {
	sp := newSpill(wire.DefaultGeometry, 0)
	_ = sp.add("x", 1)
	_ = sp.add("y", 2)
	_ = sp.add("x", 3)
	keys := map[string]string{}
	kvs, err := decodeRun(wire.DefaultGeometry, sp.data, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 3 || kvs[0].Key != "x" || kvs[1].Value != 2 || kvs[2] != (core.KV{Key: "x", Value: 3}) {
		t.Fatalf("got %+v", kvs)
	}
	if len(keys) != 2 || unsafe.StringData(kvs[0].Key) != unsafe.StringData(kvs[2].Key) {
		t.Fatalf("keys not interned: %v", keys)
	}
}

// TestDecodeRunRejectsTruncatedStream checks that a run ending inside a
// record is an error rather than a silently shorter run, and that the TCP
// shuffle fails the reducer that received it.
func TestDecodeRunRejectsTruncatedStream(t *testing.T) {
	run := newSpill(wire.DefaultGeometry, 0)
	_ = run.add("x", 1)
	_ = run.add("y", 2)
	for _, cut := range []int{1, wire.DefaultGeometry.PairWidth() - 1} {
		if kvs, err := decodeRun(wire.DefaultGeometry, run.data[:len(run.data)-cut], map[string]string{}); err == nil {
			t.Fatalf("cut %d: decoded %+v from a truncated run", cut, kvs)
		}
	}
	if _, err := decodeRun(wire.DefaultGeometry, nil, map[string]string{}); err != nil {
		t.Fatalf("empty run: %v", err)
	}

	// A mapper whose stream ends in a partial record fails the reducer:
	// mapper 0 sends one whole record and 17 bytes of the second.
	const mappers, reducers, tableSize = 2, 1, 64
	cl := newTestCluster(t, mappers, reducers, tableSize)
	spills, err := runMapPhase(WordCount, [][]string{{"a", "b"}, {"a"}}, reducers, cl.Cfg.Geometry)
	if err != nil {
		t.Fatal(err)
	}
	sp := spills[0][0]
	sp.data = sp.data[:len(sp.data)-3]
	sp.n = len(sp.data) / sp.geom.PairWidth()
	sum, _ := core.FuncByID(core.AggSum)
	if _, err := cl.shuffleTCP(sum, spills); err == nil || !strings.Contains(err.Error(), "partial record") {
		t.Fatalf("shuffleTCP over a truncated stream: %v", err)
	}
}

func TestRunJobValidation(t *testing.T) {
	cl := newTestCluster(t, 2, 1, 64)
	if _, err := cl.RunJob(WordCount, make([][]string, 3), ModeDAIET); err == nil {
		t.Fatal("split/mapper mismatch must fail")
	}
	if _, err := cl.RunJob(Job{Name: "bad", Map: WordCount.Map, Agg: 999},
		make([][]string, 2), ModeDAIET); err == nil {
		t.Fatal("unknown agg must fail")
	}
}

func TestClusterConfigValidation(t *testing.T) {
	_, err := NewCluster(ClusterConfig{
		NumMappers:  4,
		NumReducers: 4,
		Plan:        nil,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMaxAggregationJob(t *testing.T) {
	// A non-sum job exercises the pluggable combiner: per-key maximum.
	maxJob := Job{
		Name: "max",
		Map: func(rec string, emit func(string, uint32)) {
			// record format "key:value" is synthesized below as key only;
			// use the record index encoded in the word length as value.
			emit(rec, uint32(len(rec)))
		},
		Agg: core.AggMax,
	}
	splits := [][]string{
		{"aa", "bbb", "aa"},
		{"aaaa", "b"},
	}
	cl := newTestCluster(t, 2, 1, 64)
	res, err := cl.RunJob(maxJob, splits, ModeDAIET)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]uint32{}
	for _, kv := range res.PerReducer[0].Output {
		got[kv.Key] = kv.Value
	}
	if got["aa"] != 2 || got["bbb"] != 3 || got["aaaa"] != 4 || got["b"] != 1 {
		t.Fatalf("got %v", got)
	}
}
