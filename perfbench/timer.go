package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/daiet/daiet/internal/netsim"
)

// phase is one of the three parts every iteration is split into.
type phase int

const (
	phaseSetup phase = iota
	phaseSimulate
	phaseVerify
	nPhases
)

var phaseNames = [nPhases]string{"setup", "simulate", "verify"}

// span is one timed interval of a traced run. Start and End are offsets
// from the start of the run; Parent indexes the run's span list (-1 for an
// iteration's root span).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Iter   int    `json:"iter"`
}

// nodeTotal is the merged HandleFrame accounting of one layer's nodes in
// one iteration: per-frame spans would be hundreds of thousands per
// iteration, so the decorators keep totals and the trace keeps those.
type nodeTotal struct {
	Layer  string `json:"layer"`
	Iter   int    `json:"iter"`
	Calls  uint64 `json:"calls"`
	BusyNs int64  `json:"busy_ns"`
}

// trace holds the spans of a traced run in memory until the run ends.
type trace struct {
	origin time.Time
	spans  []span
	nodes  []nodeTotal
}

// timer times one iteration from outside the layers it calls. Untraced, it
// keeps only the phase durations. Traced (tr != nil), it also records a span
// per layer call, the allocations of each phase and per-layer totals.
type timer struct {
	tr   *trace
	iter int

	running  bool // a phase is open
	cur      phase
	curStart time.Time
	curSpan  int
	rootSpan int

	phase   [nPhases]time.Duration
	covered time.Duration // summed duration of the layer calls
	// layer is the per-call-name duration of this iteration, traced only.
	layer    map[string]time.Duration
	allocs   [nPhases]uint64
	liveHeap uint64
	mem      runtime.MemStats
}

func newTimer(tr *trace, iter int) *timer {
	t := &timer{tr: tr, iter: iter, rootSpan: -1, curSpan: -1}
	if tr != nil {
		t.layer = map[string]time.Duration{}
		t.rootSpan = t.openSpan("iteration", -1, time.Now())
	}
	return t
}

func (t *timer) openSpan(name string, parent int, start time.Time) int {
	t.tr.spans = append(t.tr.spans, span{Name: name, Start: int64(start.Sub(t.tr.origin)),
		Parent: parent, Iter: t.iter})
	return len(t.tr.spans) - 1
}

func (t *timer) closeSpan(i int, end time.Time) { t.tr.spans[i].End = int64(end.Sub(t.tr.origin)) }

// begin starts phase p. The allocation snapshot of a traced run is taken
// before the clock starts, so it is not counted in the phase.
func (t *timer) begin(p phase) {
	if t.tr != nil {
		runtime.ReadMemStats(&t.mem)
		t.allocs[p] = t.mem.Mallocs
	}
	t.running, t.cur = true, p
	t.curStart = time.Now()
	if t.tr != nil {
		t.curSpan = t.openSpan(phaseNames[p], t.rootSpan, t.curStart)
	}
}

// end stops the current phase, if one is running.
func (t *timer) end() {
	if !t.running {
		return
	}
	t.running = false
	now := time.Now()
	t.phase[t.cur] += now.Sub(t.curStart)
	if t.tr != nil {
		t.closeSpan(t.curSpan, now)
		runtime.ReadMemStats(&t.mem)
		t.allocs[t.cur] = t.mem.Mallocs - t.allocs[t.cur]
	}
}

// call times one call into a layer under the current phase, and names the
// call in the error it returns.
func (t *timer) call(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	d := end.Sub(start)
	t.covered += d
	if t.tr != nil {
		t.closeSpan(t.openSpan(name, t.curSpan, start), end)
		t.layer[name] += d
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// sampleHeap measures the live heap after a full collection. It runs
// between phases, so neither the collection nor the reading is timed.
func (t *timer) sampleHeap() {
	runtime.GC()
	runtime.ReadMemStats(&t.mem)
	t.liveHeap = t.mem.HeapAlloc
}

// finish stops a phase an error left running and closes the iteration's
// root span.
func (t *timer) finish() {
	t.end()
	if t.tr != nil {
		t.closeSpan(t.rootSpan, time.Now())
	}
}

// wall is the iteration's timed host time: the sum of its phases.
func (t *timer) wall() time.Duration {
	return t.phase[phaseSetup] + t.phase[phaseSimulate] + t.phase[phaseVerify]
}

// timedNode decorates a netsim.Node and times each HandleFrame call. Each
// node keeps its own totals: a node's frames are handled by one domain
// goroutine at a time, so no two goroutines write the same counters, and
// the totals are merged only after Network.Run returns.
type timedNode struct {
	inner netsim.Node
	calls uint64
	busy  time.Duration
}

func (n *timedNode) Attach(nw *netsim.Network, id netsim.NodeID) { n.inner.Attach(nw, id) }

func (n *timedNode) HandleFrame(inPort int, frame []byte) {
	start := time.Now()
	n.inner.HandleFrame(inPort, frame)
	n.busy += time.Since(start)
	n.calls++
}

// mergeNodes sums the decorators of one layer into the iteration's totals.
func (t *timer) mergeNodes(layer string, nodes []*timedNode) (calls uint64, busy time.Duration) {
	for _, n := range nodes {
		calls += n.calls
		busy += n.busy
	}
	if t.tr != nil {
		t.tr.nodes = append(t.tr.nodes, nodeTotal{Layer: layer, Iter: t.iter, Calls: calls, BusyNs: int64(busy)})
	}
	return calls, busy
}
