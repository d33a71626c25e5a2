package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/daiet/daiet/internal/hashing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	// Same timestamp: insertion order must win.
	e.Schedule(20, func() { order = append(order, 4) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order %v want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic scheduling in the past")
		}
	}()
	e.Schedule(5, func() {})
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	hits := 0
	e.Schedule(1, func() {
		e.After(1, func() {
			hits++
		})
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if hits != 1 || e.Now() != 2 {
		t.Fatalf("hits=%d now=%v", hits, e.Now())
	}
}

func TestEngineEventBudget(t *testing.T) {
	e := NewEngine()
	var loop func()
	loop = func() { e.After(1, loop) }
	e.Schedule(0, loop)
	if err := e.Run(100); err == nil {
		t.Fatal("want budget error")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(20, func() { ran++ })
	e.RunUntil(15)
	if ran != 1 || e.Now() != 15 || e.Pending() != 1 {
		t.Fatalf("ran=%d now=%v pending=%d", ran, e.Now(), e.Pending())
	}
	e.RunUntil(25)
	if ran != 2 || e.Now() != 25 {
		t.Fatalf("ran=%d now=%v", ran, e.Now())
	}
}

// sink records every frame it receives with its arrival time.
type sink struct {
	nw     *Network
	id     NodeID
	frames [][]byte
	times  []Time
}

func (s *sink) Attach(nw *Network, id NodeID) { s.nw, s.id = nw, id }
func (s *sink) HandleFrame(inPort int, frame []byte) {
	s.frames = append(s.frames, frame)
	s.times = append(s.times, s.nw.NodeNow(s.id))
}

func TestDeliveryAndTiming(t *testing.T) {
	nw := New(1)
	a, b := &sink{}, &sink{}
	nw.AddNode(1, a)
	nw.AddNode(2, b)
	ap, bp := nw.Connect(1, 2, LinkConfig{
		BandwidthBps: 1_000_000_000, // 1 Gb/s => 8 ns per byte
		Propagation:  time.Microsecond,
	})
	if ap != 0 || bp != 0 {
		t.Fatalf("ports %d %d", ap, bp)
	}
	frame := make([]byte, 125) // 1000 bits => 1000 ns at 1 Gb/s
	nw.Send(1, 0, frame)
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(b.frames) != 1 {
		t.Fatalf("b got %d frames", len(b.frames))
	}
	// tx 1000 ns + prop 1000 ns = 2 µs.
	if b.times[0] != 2000 {
		t.Fatalf("arrival at %v want 2µs", b.times[0])
	}
	st := nw.PortStats(1, 0)
	if st.TxFrames != 1 || st.TxBytes != 125 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSerializationDelaysBackToBackFrames(t *testing.T) {
	nw := New(1)
	a, b := &sink{}, &sink{}
	nw.AddNode(1, a)
	nw.AddNode(2, b)
	nw.Connect(1, 2, LinkConfig{BandwidthBps: 1_000_000_000, Propagation: time.Microsecond})
	// Two frames sent at t=0 must serialize: second arrives one tx-time later.
	nw.Send(1, 0, make([]byte, 125))
	nw.Send(1, 0, make([]byte, 125))
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(b.times) != 2 {
		t.Fatalf("frames %d", len(b.times))
	}
	if b.times[1]-b.times[0] != 1000 {
		t.Fatalf("spacing %v want 1000ns", b.times[1]-b.times[0])
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	nw := New(1)
	a, b := &sink{}, &sink{}
	nw.AddNode(1, a)
	nw.AddNode(2, b)
	nw.Connect(1, 2, LinkConfig{
		BandwidthBps: 1_000_000, // slow: 8 µs per byte
		QueueBytes:   300,
	})
	for i := 0; i < 5; i++ {
		nw.Send(1, 0, make([]byte, 100)) // 500 bytes into a 300-byte queue
	}
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	st := nw.PortStats(1, 0)
	if st.DropsFull != 2 || st.TxFrames != 3 {
		t.Fatalf("stats %+v", st)
	}
	if len(b.frames) != 3 {
		t.Fatalf("delivered %d", len(b.frames))
	}
}

func TestQueueDrainsOverTime(t *testing.T) {
	// Queue occupancy must fall as frames serialize, even though drains are
	// applied lazily (no per-frame engine event): a queue that was full at
	// t=0 accepts new frames once earlier ones have left.
	nw := New(1)
	a, b := &sink{}, &sink{}
	nw.AddNode(1, a)
	nw.AddNode(2, b)
	nw.Connect(1, 2, LinkConfig{
		BandwidthBps: 1_000_000, // 8 µs per byte => 800 µs per 100 B frame
		QueueBytes:   300,
	})
	for i := 0; i < 4; i++ {
		nw.Send(1, 0, make([]byte, 100)) // fourth overflows
	}
	if st := nw.PortStats(1, 0); st.DropsFull != 1 {
		t.Fatalf("expected 1 drop at t=0, got %+v", st)
	}
	// After the first frame serializes, one slot is free again.
	if err := nw.RunUntil(Duration(800 * time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	nw.Send(1, 0, make([]byte, 100))
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	st := nw.PortStats(1, 0)
	if st.DropsFull != 1 || st.TxFrames != 4 {
		t.Fatalf("stats %+v; want the post-drain frame accepted", st)
	}
	if len(b.frames) != 4 {
		t.Fatalf("delivered %d", len(b.frames))
	}
}

func TestSendBurstMatchesRepeatedSend(t *testing.T) {
	run := func(burst bool) ([]Time, LinkStats) {
		nw := New(1)
		a, b := &sink{}, &sink{}
		nw.AddNode(1, a)
		nw.AddNode(2, b)
		nw.Connect(1, 2, LinkConfig{
			BandwidthBps: 1_000_000_000,
			Propagation:  time.Microsecond,
			QueueBytes:   300, // two 125 B frames fit, the third drops
		})
		frames := [][]byte{make([]byte, 125), make([]byte, 125), make([]byte, 125)}
		if burst {
			nw.SendBurst(1, 0, frames)
		} else {
			for _, f := range frames {
				nw.Send(1, 0, f)
			}
		}
		if err := nw.Run(0); err != nil {
			t.Fatal(err)
		}
		return b.times, nw.PortStats(1, 0)
	}
	seqTimes, seqStats := run(false)
	burstTimes, burstStats := run(true)
	if seqStats != burstStats {
		t.Fatalf("stats diverge: %+v vs %+v", seqStats, burstStats)
	}
	if seqStats.DropsFull != 1 {
		t.Fatalf("overflow not exercised: %+v", seqStats)
	}
	if len(seqTimes) != len(burstTimes) {
		t.Fatalf("deliveries %d vs %d", len(seqTimes), len(burstTimes))
	}
	for i := range seqTimes {
		if seqTimes[i] != burstTimes[i] {
			t.Fatalf("arrival %d: %v vs %v", i, seqTimes[i], burstTimes[i])
		}
	}
}

func TestLossInjectionDeterministic(t *testing.T) {
	run := func(seed uint64) uint64 {
		nw := New(seed)
		a, b := &sink{}, &sink{}
		nw.AddNode(1, a)
		nw.AddNode(2, b)
		nw.Connect(1, 2, LinkConfig{LossProb: 0.5})
		for i := 0; i < 200; i++ {
			nw.Send(1, 0, make([]byte, 64))
		}
		if err := nw.Run(0); err != nil {
			t.Fatal(err)
		}
		return nw.PortStats(1, 0).DropsLoss
	}
	d1, d2 := run(42), run(42)
	if d1 != d2 {
		t.Fatalf("same seed, different drops: %d vs %d", d1, d2)
	}
	if d1 == 0 || d1 == 200 {
		t.Fatalf("implausible drop count %d at p=0.5", d1)
	}
	if d3 := run(43); d3 == d1 {
		// Not impossible, but with 200 Bernoulli(0.5) trials a collision in
		// counts is unlikely enough to flag a seeding bug.
		t.Logf("note: different seeds produced identical drop counts (%d)", d1)
	}
}

// lossyDrops sends n indexed frames each way over a LossProb-0.3 link
// (node 1's second port, node 3's first) and returns the indices each
// direction dropped.
func lossyDrops(t *testing.T, n int) (fwd, rev []int) {
	t.Helper()
	nw := New(7)
	a, b, c := &sink{}, &sink{}, &sink{}
	nw.AddNode(1, a)
	nw.AddNode(2, b)
	nw.AddNode(3, c)
	nw.Connect(1, 2, LinkConfig{})
	ap, cp := nw.Connect(1, 3, LinkConfig{LossProb: 0.3})
	for i := 0; i < n; i++ {
		nw.Send(1, ap, []byte{byte(i >> 8), byte(i)})
		nw.Send(3, cp, []byte{byte(i >> 8), byte(i)})
	}
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	missing := func(got [][]byte) []int {
		seen := make([]bool, n)
		for _, f := range got {
			seen[int(f[0])<<8|int(f[1])] = true
		}
		var out []int
		for i, ok := range seen {
			if !ok {
				out = append(out, i)
			}
		}
		return out
	}
	return missing(c.frames), missing(a.frames)
}

// TestLossyLinkDropPattern pins which frames a lossy link drops, in both
// directions: the per-half-link loss stream is part of every lossy
// figure's output, so any change to how it is seeded or drawn shows here.
func TestLossyLinkDropPattern(t *testing.T) {
	fwd, rev := lossyDrops(t, 2000)
	digest := func(idx []int) uint64 {
		b := make([]byte, 0, 2*len(idx))
		for _, i := range idx {
			b = append(b, byte(i>>8), byte(i))
		}
		return hashing.FNV1a64(b)
	}
	for _, c := range []struct {
		name  string
		got   []int
		count int
		first []int
		hash  uint64
	}{
		{"1->3", fwd, 599, []int{8, 9, 11, 13, 14, 17, 19, 24}, 0x13d69ad51ac07768},
		{"3->1", rev, 624, []int{1, 7, 8, 9, 12, 19, 21, 22}, 0x8f39eb3aadb0e127},
	} {
		if len(c.got) != c.count {
			t.Errorf("%s: %d drops, want %d", c.name, len(c.got), c.count)
			continue
		}
		for i, want := range c.first {
			if c.got[i] != want {
				t.Errorf("%s: drop %d is frame %d, want %d", c.name, i, c.got[i], want)
			}
		}
		if h := digest(c.got); h != c.hash {
			t.Errorf("%s: drop digest %#x, want %#x", c.name, h, c.hash)
		}
	}
}

// TestLosslessLinkBuildsNoRNG checks the loss stream is built lazily: a
// link without LossProb never seeds one, neither at Connect nor on send,
// while a lossy one builds it on its first frame.
func TestLosslessLinkBuildsNoRNG(t *testing.T) {
	nw := New(1)
	nw.AddNode(1, &sink{})
	nw.AddNode(2, &sink{})
	nw.AddNode(3, &sink{})
	nw.Connect(1, 2, LinkConfig{})
	nw.Connect(1, 3, LinkConfig{LossProb: 0.3})
	for _, hl := range nw.half {
		if hl.rng != nil {
			t.Fatalf("half-link %d->%d built its loss RNG at Connect", hl.srcNode, hl.dstNode)
		}
	}
	for i := 0; i < 10; i++ {
		nw.Send(1, 0, make([]byte, 64))
		nw.Send(2, 0, make([]byte, 64))
		nw.Send(1, 1, make([]byte, 64))
	}
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	for _, hl := range nw.half {
		lossy := hl.srcNode == 1 && hl.dstNode == 3
		if built := hl.rng != nil; built != lossy {
			t.Errorf("half-link %d->%d: loss RNG built=%v after sends, want %v",
				hl.srcNode, hl.dstNode, built, lossy)
		}
	}
}

func TestBidirectionalIndependentQueues(t *testing.T) {
	nw := New(1)
	a, b := &sink{}, &sink{}
	nw.AddNode(1, a)
	nw.AddNode(2, b)
	nw.Connect(1, 2, LinkConfig{})
	nw.Send(1, 0, make([]byte, 10))
	nw.Send(2, 0, make([]byte, 20))
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(a.frames) != 1 || len(b.frames) != 1 {
		t.Fatalf("a=%d b=%d", len(a.frames), len(b.frames))
	}
	tot := nw.TotalStats()
	if tot.TxFrames != 2 || tot.TxBytes != 30 {
		t.Fatalf("total %+v", tot)
	}
}

func TestMultiplePortsPerNode(t *testing.T) {
	nw := New(1)
	sw, h1, h2 := &sink{}, &sink{}, &sink{}
	nw.AddNode(10, sw)
	nw.AddNode(1, h1)
	nw.AddNode(2, h2)
	swP1, _ := nw.Connect(10, 1, LinkConfig{})
	swP2, _ := nw.Connect(10, 2, LinkConfig{})
	if swP1 != 0 || swP2 != 1 {
		t.Fatalf("switch ports %d %d", swP1, swP2)
	}
	if nw.NumPorts(10) != 2 || nw.NumPorts(1) != 1 {
		t.Fatal("port counts")
	}
	nw.Send(10, 1, []byte{9}) // out port 1 -> h2
	if err := nw.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(h2.frames) != 1 || len(h1.frames) != 0 {
		t.Fatalf("h1=%d h2=%d", len(h1.frames), len(h2.frames))
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	nw := New(1)
	nw.AddNode(1, &sink{})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on duplicate node")
		}
	}()
	nw.AddNode(1, &sink{})
}

func TestSendOnBadPortPanics(t *testing.T) {
	nw := New(1)
	nw.AddNode(1, &sink{})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on bad port")
		}
	}()
	nw.Send(1, 0, []byte{1})
}

func TestPortStatsUnknownPort(t *testing.T) {
	nw := New(1)
	nw.AddNode(1, &sink{})
	if st := nw.PortStats(1, 5); st != (LinkStats{}) {
		t.Fatalf("want zero stats, got %+v", st)
	}
}

// Property: frames between one (sender, port) pair arrive in FIFO order
// regardless of sizes — the invariant the DAIET END semantics depend on.
func TestFIFOOrderingProperty(t *testing.T) {
	f := func(seed int64, sizesRaw []uint8) bool {
		if len(sizesRaw) == 0 {
			return true
		}
		if len(sizesRaw) > 100 {
			sizesRaw = sizesRaw[:100]
		}
		nw := New(uint64(seed))
		a, b := &sink{}, &sink{}
		nw.AddNode(1, a)
		nw.AddNode(2, b)
		nw.Connect(1, 2, LinkConfig{QueueBytes: 1 << 20})
		for i, s := range sizesRaw {
			frame := make([]byte, int(s)+1)
			frame[0] = byte(i)
			nw.Send(1, 0, frame)
		}
		if err := nw.Run(0); err != nil {
			return false
		}
		if len(b.frames) != len(sizesRaw) {
			return false
		}
		for i, fr := range b.frames {
			if fr[0] != byte(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEventLoop measures raw scheduler throughput.
func BenchmarkEventLoop(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+1, func() {})
		e.Step()
	}
}

// BenchmarkFrameDelivery measures one frame through link serialization,
// propagation and delivery.
func BenchmarkFrameDelivery(b *testing.B) {
	nw := New(1)
	a, c := &sink{}, &sink{}
	nw.AddNode(1, a)
	nw.AddNode(2, c)
	nw.Connect(1, 2, LinkConfig{})
	frame := make([]byte, 256)
	b.SetBytes(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Send(1, 0, frame)
		if err := nw.Run(0); err != nil {
			b.Fatal(err)
		}
		c.frames = c.frames[:0]
	}
}
