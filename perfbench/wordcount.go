package main

import (
	"fmt"
	"strings"

	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/mapreduce"
	"github.com/daiet/daiet/internal/stats"
	"github.com/daiet/daiet/internal/workload"
)

// The Figure 3 job: 24 mappers and 12 reducers on one switch, a 16K
// register table and 10 pairs per packet, over a collision-free corpus.
const (
	wcMappers        = 24
	wcReducers       = 12
	wcTable          = 16384
	wcVocabPerReduce = 2000
	wcMultiplicity   = 8.3
	wcMSS            = 1460
)

var wcModes = []mapreduce.Mode{mapreduce.ModeDAIET, mapreduce.ModeUDPBaseline, mapreduce.ModeTCPBaseline}

type wordcount struct {
	spec workload.CorpusSpec
	// truth is every word's count in the corpus, counted by the benchmark.
	truth map[string]uint32
	// overlapPct is the share of words that two or more mappers emit.
	overlapPct float64
}

func newWordcount(seed uint64) (*wordcount, error) {
	w := &wordcount{
		spec: workload.CorpusSpec{Seed: seed, Reducers: wcReducers, VocabPerReducer: wcVocabPerReduce,
			MeanMultiplicity: wcMultiplicity, TableSize: wcTable, CollisionFree: true},
		truth: map[string]uint32{},
	}
	corpus, err := workload.Generate(w.spec)
	if err != nil {
		return nil, err
	}
	mappers := map[string]int{}
	for _, split := range corpus.Splits(wcMappers) {
		seen := map[string]bool{}
		for _, word := range split {
			w.truth[word]++
			if !seen[word] {
				seen[word] = true
				mappers[word]++
			}
		}
	}
	multi := 0
	for _, n := range mappers {
		if n >= 2 {
			multi++
		}
	}
	w.overlapPct = 100 * stats.Ratio(float64(multi), float64(len(mappers)))
	return w, nil
}

func (w *wordcount) iterate(t *timer) (*outcome, error) {
	var splits [][]string
	clusters := make([]*mapreduce.Cluster, len(wcModes))
	results := make([]*mapreduce.Result, len(wcModes))

	t.begin(phaseSetup)
	err := t.call("workload.generate", func() error {
		corpus, err := workload.Generate(w.spec)
		if err != nil {
			return err
		}
		splits = corpus.Splits(wcMappers)
		return nil
	})
	for i := range wcModes {
		if err != nil {
			break
		}
		err = t.call("mapreduce.cluster", func() error {
			var err error
			clusters[i], err = mapreduce.NewCluster(mapreduce.ClusterConfig{
				NumMappers: wcMappers, NumReducers: wcReducers, TableSize: wcTable,
				MaxPairsPerPacket: pairsPerPacket, MSS: wcMSS, Seed: w.spec.Seed, SimWorkers: 1,
			})
			return err
		})
	}
	t.end()
	if err != nil {
		return nil, err
	}

	t.begin(phaseSimulate)
	for i, mode := range wcModes {
		// RunJob maps, shuffles through the simulated fabric, reduces and
		// checks every reducer against its own reference.
		err = t.call("mapreduce.job."+mode.String(), func() error {
			var err error
			results[i], err = clusters[i].RunJob(mapreduce.WordCount, splits, mode)
			return err
		})
		if err != nil {
			break
		}
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
		out, err = w.verify(clusters, results)
		return err
	})
	t.end()
	return out, err
}

// verify checks every mode's reducer outputs against the benchmark's own
// word counts and collects the iteration's counters.
func (w *wordcount) verify(clusters []*mapreduce.Cluster, results []*mapreduce.Result) (*outcome, error) {
	out := &outcome{overlapPct: w.overlapPct, layer: map[string]float64{}}
	var fp strings.Builder
	var events, arenaBytes, toSwitches, toHosts uint64
	payload := make([]uint64, len(wcModes))
	for i, mode := range wcModes {
		res, cl := results[i], clusters[i]
		words := 0
		var reduce float64
		for _, r := range res.PerReducer {
			for _, kv := range r.Output {
				if w.truth[kv.Key] != kv.Value {
					return nil, fmt.Errorf("%s: word %q counted %d, want %d", mode, kv.Key, kv.Value, w.truth[kv.Key])
				}
			}
			words += len(r.Output)
			payload[i] += r.PayloadBytes
			reduce += r.ReduceTime.Seconds()
		}
		if words != len(w.truth) {
			return nil, fmt.Errorf("%s: reducers emitted %d words, the corpus has %d", mode, words, len(w.truth))
		}
		out.layer["mapreduce.reduce_s."+mode.String()] = reduce
		frames := cl.Net.TotalStats().TxFrames
		out.frames += frames
		events += cl.Net.Processed()
		arenaBytes += uint64(cl.Net.ArenaStats().Bytes)
		s, h := deliveredFrames(cl.Fab)
		toSwitches += s
		toHosts += h
		fmt.Fprintf(&fp, "%s: events=%d frames=%d payload=%d completion=%v; ",
			mode, cl.Net.Processed(), frames, payload[i], res.Elapsed)
	}
	var ts core.TreeStats
	for _, st := range results[0].SwitchTreeStats {
		ts.PairsIn += st.PairsIn
		ts.PairsCombined += st.PairsCombined
		ts.PairsSpilled += st.PairsSpilled
		ts.RootRetransmissions += st.RootRetransmissions
		ts.FlushStalls += st.FlushStalls
	}
	out.fingerprint = fp.String()
	out.completion = results[0].Elapsed
	// Figure 3's first panel: bytes reaching the reducers, DAIET against
	// the TCP baseline.
	out.reductionPct = stats.ReductionPct(float64(payload[2]), float64(payload[0]))
	for k, v := range map[string]float64{
		"netsim.events":            float64(events),
		"netsim.peak_arena_kb":     float64(arenaBytes) / 1024,
		"dataplane.frames":         float64(toSwitches),
		"transport.frames":         float64(toHosts),
		"core.pairs_in":            float64(ts.PairsIn),
		"core.combine_ratio":       stats.Ratio(float64(ts.PairsCombined), float64(ts.PairsIn)),
		"core.pairs_spilled":       float64(ts.PairsSpilled),
		"core.hop_retransmissions": float64(ts.RootRetransmissions),
		"core.flush_stalls":        float64(ts.FlushStalls),
	} {
		out.layer[k] = v
	}
	return out, nil
}

func (w *wordcount) crossCheck(*outcome) error { return nil }
