package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/netsim"
	"github.com/daiet/daiet/internal/topology"
	"github.com/daiet/daiet/internal/wire"
)

// TestSwitchSurvivesGarbageFrames drives random byte blobs and mutated
// DAIET frames through a configured switch: the program must never panic,
// and its counters must account every input as received.
func TestSwitchSurvivesGarbageFrames(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%50 + 1

		nw := netsim.New(uint64(seed))
		prog, err := core.NewProgram(core.ProgramConfig{})
		if err != nil {
			return false
		}
		sw := topology.SwitchBase
		nw.AddNode(sw, prog.Switch())
		host := &frameSource{}
		nw.AddNode(1, host)
		nw.Connect(sw, 1, netsim.LinkConfig{})
		if err := prog.InstallRoute(1, 0); err != nil {
			return false
		}
		if err := prog.ConfigureTree(core.TreeConfig{
			TreeID: 1, Children: 1, TableSize: 16, Agg: core.AggSum,
		}); err != nil {
			return false
		}

		for i := 0; i < n; i++ {
			var frame []byte
			switch rng.Intn(3) {
			case 0: // pure garbage
				frame = make([]byte, rng.Intn(400))
				rng.Read(frame)
			case 1: // valid frame, then corrupted at a random position
				frame = validDaietFrame(rng)
				if len(frame) > 0 {
					frame[rng.Intn(len(frame))] ^= byte(1 + rng.Intn(255))
				}
			default: // truncated valid frame
				full := validDaietFrame(rng)
				frame = full[:rng.Intn(len(full)+1)]
			}
			nw.Send(1, 0, frame)
		}
		if err := nw.Run(1_000_000); err != nil {
			return false
		}
		c := prog.Switch().Counters
		return c.RxFrames == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// frameSource is a do-nothing host for robustness tests.
type frameSource struct{}

func (*frameSource) Attach(*netsim.Network, netsim.NodeID) {}
func (*frameSource) HandleFrame(int, []byte)               {}

// validDaietFrame builds a well-formed frame with a random number of pairs.
func validDaietFrame(rng *rand.Rand) []byte {
	n := rng.Intn(11)
	buf := wire.NewBuffer(wire.DefaultHeadroom, 256)
	for i := 0; i < n; i++ {
		key := make([]byte, 1+rng.Intn(16))
		rng.Read(key)
		_ = wire.AppendPair(buf, wire.DefaultGeometry, key, rng.Uint32())
	}
	hdr := wire.DaietHeader{
		Type:     wire.DaietType(1 + rng.Intn(4)),
		TreeID:   uint32(rng.Intn(3)),
		Seq:      rng.Uint32(),
		NumPairs: uint16(n),
		Flags:    uint16(rng.Intn(1 << 16)),
	}
	return wire.BuildDaietFrame(buf, hdr, 1, uint32(rng.Intn(3)), wire.UDPPortDaiet)
}

// TestCollectorSurvivesGarbagePayloads fuzzes the reducer-side decoder.
func TestCollectorSurvivesGarbagePayloads(t *testing.T) {
	sum, _ := core.FuncByID(core.AggSum)
	col := core.NewCollector(7, sum, wire.DefaultGeometry, 1)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		p := make([]byte, rng.Intn(300))
		rng.Read(p)
		col.Ingest(p) // must never panic
	}
	if col.Complete() {
		t.Fatal("garbage completed the stream")
	}
}

// TestTreeStateInvariantsUnderRandomTraffic checks the switch's pair
// conservation invariant under randomized valid traffic: every pair that
// enters a switch is stored, combined, or spilled — never lost.
func TestTreeStateInvariantsUnderRandomTraffic(t *testing.T) {
	f := func(seed int64, tableRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tableSize := 1 + int(tableRaw)%32

		nw := netsim.New(uint64(seed))
		prog, err := core.NewProgram(core.ProgramConfig{})
		if err != nil {
			return false
		}
		sw := topology.SwitchBase
		nw.AddNode(sw, prog.Switch())
		nw.AddNode(1, &frameSource{})
		nw.AddNode(2, &frameSource{})
		nw.Connect(sw, 1, netsim.LinkConfig{})
		nw.Connect(sw, 2, netsim.LinkConfig{})
		_ = prog.InstallRoute(1, 0)
		_ = prog.InstallRoute(2, 1)
		if err := prog.ConfigureTree(core.TreeConfig{
			TreeID: 2, Children: 1, TableSize: tableSize, Agg: core.AggSum,
		}); err != nil {
			return false
		}

		nPairs := 0
		for p := 0; p < 20; p++ {
			buf := wire.NewBuffer(wire.DefaultHeadroom, 256)
			n := rng.Intn(11)
			for i := 0; i < n; i++ {
				key := []byte{byte('a' + rng.Intn(8)), byte('a' + rng.Intn(8))}
				_ = wire.AppendPair(buf, wire.DefaultGeometry, key, 1)
			}
			hdr := wire.DaietHeader{Type: wire.TypeData, TreeID: 2, NumPairs: uint16(n)}
			nw.Send(1, 0, wire.BuildDaietFrame(buf, hdr, 1, 2, wire.UDPPortDaiet))
			nPairs += n
		}
		if err := nw.Run(1_000_000); err != nil {
			return false
		}
		st, ok := prog.TreeStats(2)
		if !ok {
			return false
		}
		return st.PairsIn == uint64(nPairs) &&
			st.PairsStored+st.PairsCombined+st.PairsSpilled == st.PairsIn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
