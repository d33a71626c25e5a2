// Package mapreduce is the partition/aggregate application substrate of the
// reproduction: a MapReduce framework whose shuffle phase can run in three
// modes, matching the paper's §5 evaluation:
//
//   - ModeDAIET: the DAIET protocol with in-network aggregation,
//   - ModeUDPBaseline: the DAIET protocol without switch aggregation
//     ("using UDP and the DAIET protocol, but without executing data
//     aggregation in the switch"),
//   - ModeTCPBaseline: "the original TCP-based data exchange" over the
//     tcplite reliable stream, mapper-side sorted as classic MapReduce
//     would.
//
// Reducer compute (sort + combine, or merge for the sorted TCP case) is
// executed for real and wall-clock timed: the paper's reduce-time panel
// measures exactly that work.
package mapreduce

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/wire"
	"github.com/daiet/daiet/internal/workload"
)

// Mode selects the shuffle transport.
type Mode int

// Shuffle modes (see package comment).
const (
	ModeDAIET Mode = iota
	ModeUDPBaseline
	ModeTCPBaseline
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeDAIET:
		return "daiet"
	case ModeUDPBaseline:
		return "udp-baseline"
	case ModeTCPBaseline:
		return "tcp-baseline"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Job defines one MapReduce application. Map emits key-value pairs for one
// input record; the shuffle combines values per key with the (commutative,
// associative) aggregation function — the paper's "readily available"
// combiner — and the reducer performs the final combine plus its mandatory
// sort.
type Job struct {
	Name string
	Map  func(record string, emit func(key string, value uint32))
	Agg  core.AggFuncID
}

// WordCount is the paper's §5 benchmark job.
var WordCount = Job{
	Name: "wordcount",
	Map: func(record string, emit func(string, uint32)) {
		emit(record, 1)
	},
	Agg: core.AggSum,
}

// spill is one mapper's output for one reducer partition: fixed-size
// records, exactly the on-disk layout §4 describes ("we use a fixed-size
// representation for the pairs, so that it is easy to calculate the offsets
// of pairs in the file and extract a number of complete pairs").
type spill struct {
	geom wire.PairGeometry
	data []byte
	n    int
}

// newSpill returns an empty spill with room for capRecords records.
func newSpill(geom wire.PairGeometry, capRecords int) *spill {
	return &spill{geom: geom, data: make([]byte, 0, capRecords*geom.PairWidth())}
}

func (s *spill) add(key string, value uint32) error {
	if len(key) > s.geom.KeyWidth {
		return fmt.Errorf("mapreduce: key %q exceeds key width %d", key, s.geom.KeyWidth)
	}
	off := len(s.data)
	s.data = append(s.data, make([]byte, s.geom.PairWidth())...)
	copy(s.data[off:], key)
	binary.BigEndian.PutUint32(s.data[off+s.geom.KeyWidth:], value)
	s.n++
	return nil
}

// record returns the i-th (key, value).
func (s *spill) record(i int) (key []byte, value uint32) {
	off := i * s.geom.PairWidth()
	key = s.data[off : off+s.geom.KeyWidth]
	value = binary.BigEndian.Uint32(s.data[off+s.geom.KeyWidth : off+s.geom.PairWidth()])
	return key, value
}

// sortRecords sorts the spill by key — the mapper-side sort the TCP
// baseline performs before the shuffle. Records with equal keys keep
// their emission order, so the order is total and the sorted bytes depend
// on nothing but the spill.
func (s *spill) sortRecords() {
	pw, kw := s.geom.PairWidth(), s.geom.KeyWidth
	idx := make([]int32, s.n)
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		ka := s.data[int(a)*pw : int(a)*pw+kw]
		kb := s.data[int(b)*pw : int(b)*pw+kw]
		if c := bytes.Compare(ka, kb); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	sorted := make([]byte, len(s.data))
	for out, in := range idx {
		copy(sorted[out*pw:(out+1)*pw], s.data[int(in)*pw:(int(in)+1)*pw])
	}
	s.data = sorted
}

// decodeRun parses one mapper's fixed-record run into KVs. keys interns
// the key strings across all runs one reducer receives, so each distinct
// key is allocated once per reducer rather than once per record. A run
// that ends inside a record is an error: the stream lost bytes.
func decodeRun(geom wire.PairGeometry, data []byte, keys map[string]string) ([]core.KV, error) {
	pw := geom.PairWidth()
	if rem := len(data) % pw; rem != 0 {
		return nil, fmt.Errorf("%d bytes end in a partial record (%d of %d bytes)", len(data), rem, pw)
	}
	out := make([]core.KV, len(data)/pw)
	for i := range out {
		rec := data[i*pw : (i+1)*pw]
		kb := wire.TrimKey(rec[:geom.KeyWidth])
		key, ok := keys[string(kb)]
		if !ok {
			key = string(kb)
			keys[key] = key
		}
		out[i] = core.KV{Key: key, Value: binary.BigEndian.Uint32(rec[geom.KeyWidth:])}
	}
	return out, nil
}

// runMapPhase executes Map over every split, partitioning output into
// per-(mapper, reducer) spills.
func runMapPhase(job Job, splits [][]string, nReducers int, geom wire.PairGeometry) ([][]*spill, error) {
	spills := make([][]*spill, len(splits))
	var firstErr error
	for m, split := range splits {
		// Size each spill once for one pair per record (WordCount) spread
		// evenly over the partitions, with headroom for the imbalance; a
		// spill that still outgrows it grows by append.
		hint := len(split) / nReducers
		hint += hint/8 + 16
		spills[m] = make([]*spill, nReducers)
		for r := range spills[m] {
			spills[m][r] = newSpill(geom, hint)
		}
		emit := func(key string, value uint32) {
			p := workload.PartitionOf(key, geom.KeyWidth, nReducers)
			if err := spills[m][p].add(key, value); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		for _, rec := range split {
			job.Map(rec, emit)
		}
	}
	return spills, firstErr
}

// reduceSortAll is the reducer work in the DAIET and UDP-baseline modes:
// the input arrives unsorted (and, under DAIET, pre-aggregated), so the
// reducer sorts everything and combines adjacent duplicates. The returned
// duration is real measured wall time.
func reduceSortAll(pairs []core.KV, agg core.AggFunc) ([]core.KV, time.Duration) {
	start := startStopwatch()
	sorted := append([]core.KV(nil), pairs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	out := make([]core.KV, 0, len(sorted))
	for _, kv := range sorted {
		if n := len(out); n > 0 && out[n-1].Key == kv.Key {
			out[n-1].Value = agg.Combine(out[n-1].Value, kv.Value)
		} else {
			out = append(out, kv)
		}
	}
	return out, elapsedSince(start)
}

// reduceMergeRuns is the reducer work in the TCP baseline: each mapper's
// run arrives sorted, so the reducer performs a k-way merge with combining.
func reduceMergeRuns(runs [][]core.KV, agg core.AggFunc) ([]core.KV, time.Duration) {
	start := startStopwatch()
	type cursor struct {
		run []core.KV
		pos int
	}
	heapLess := func(a, b *cursor) bool { return a.run[a.pos].Key < b.run[b.pos].Key }
	var h []*cursor
	push := func(c *cursor) {
		h = append(h, c)
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if heapLess(h[i], h[parent]) {
				h[i], h[parent] = h[parent], h[i]
				i = parent
			} else {
				break
			}
		}
	}
	pop := func() *cursor {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(h) && heapLess(h[l], h[small]) {
				small = l
			}
			if r < len(h) && heapLess(h[r], h[small]) {
				small = r
			}
			if small == i {
				break
			}
			h[i], h[small] = h[small], h[i]
			i = small
		}
		return top
	}
	for _, run := range runs {
		if len(run) > 0 {
			push(&cursor{run: run})
		}
	}
	var out []core.KV
	for len(h) > 0 {
		c := pop()
		kv := c.run[c.pos]
		if n := len(out); n > 0 && out[n-1].Key == kv.Key {
			out[n-1].Value = agg.Combine(out[n-1].Value, kv.Value)
		} else {
			out = append(out, kv)
		}
		c.pos++
		if c.pos < len(c.run) {
			push(c)
		}
	}
	return out, elapsedSince(start)
}

// verifyAgainstReference recomputes the job output directly from the spills
// and compares — the end-to-end correctness oracle. got must be strictly
// ascending (sorted, no key twice); every spilled key must be in got,
// every key of got must have been spilled, and each value must equal the
// combine of that key's spilled values. The reference is accumulated per
// position of got, looked up by the record's key bytes, so checking
// allocates nothing per record.
func verifyAgainstReference(spills [][]*spill, reducer int, agg core.AggFunc, got []core.KV) error {
	for i := 1; i < len(got); i++ {
		if got[i].Key <= got[i-1].Key {
			return fmt.Errorf("mapreduce: reducer %d output not sorted at %d", reducer, i)
		}
	}
	slot := make(map[string]int, len(got))
	for i, kv := range got {
		slot[kv.Key] = i
	}
	type total struct {
		value uint32
		hit   bool
	}
	want := make([]total, len(got))
	for m := range spills {
		sp := spills[m][reducer]
		for i := 0; i < sp.n; i++ {
			k, v := sp.record(i)
			key := wire.TrimKey(k)
			j, ok := slot[string(key)]
			if !ok {
				return fmt.Errorf("mapreduce: reducer %d output lacks key %q", reducer, key)
			}
			if !want[j].hit {
				want[j] = total{value: agg.Identity(), hit: true}
			}
			want[j].value = agg.Combine(want[j].value, v)
		}
	}
	for j, kv := range got {
		if !want[j].hit {
			return fmt.Errorf("mapreduce: reducer %d output has key %q that no mapper emitted", reducer, kv.Key)
		}
		if kv.Value != want[j].value {
			return fmt.Errorf("mapreduce: reducer %d key %q = %d, want %d", reducer, kv.Key, kv.Value, want[j].value)
		}
	}
	return nil
}
