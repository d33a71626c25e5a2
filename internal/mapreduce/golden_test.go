package mapreduce

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/daiet/daiet/internal/core"
	"github.com/daiet/daiet/internal/wire"
	"github.com/daiet/daiet/internal/workload"
)

// maxJob keeps each key's largest value; with the word length as value it
// exercises a non-sum combiner over the same corpus.
var maxJob = Job{
	Name: "max",
	Map: func(rec string, emit func(string, uint32)) {
		emit(rec, uint32(len(rec)))
	},
	Agg: core.AggMax,
}

// runJobFingerprint renders every counter RunJob reports for one mode
// plus a SHA-256 over all reducer outputs, in reducer order.
func runJobFingerprint(t *testing.T, job Job, splits [][]string, cfg ClusterConfig, mode Mode) string {
	t.Helper()
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.RunJob(job, splits, mode)
	if err != nil {
		t.Fatalf("%s/%v: %v", job.Name, mode, err)
	}
	h := sha256.New()
	var payload, pairs, packets []uint64
	for _, r := range res.PerReducer {
		payload = append(payload, r.PayloadBytes)
		pairs = append(pairs, r.PairsReceived)
		packets = append(packets, r.PacketsReceived)
		for _, kv := range r.Output {
			h.Write([]byte(kv.Key))
			h.Write(binary.BigEndian.AppendUint32([]byte{0}, kv.Value))
		}
		h.Write([]byte{0xff})
	}
	var ts core.TreeStats
	for _, st := range res.SwitchTreeStats {
		ts.DataPacketsIn += st.DataPacketsIn
		ts.EndPacketsIn += st.EndPacketsIn
		ts.PairsIn += st.PairsIn
		ts.PairsStored += st.PairsStored
		ts.PairsCombined += st.PairsCombined
		ts.PairsSpilled += st.PairsSpilled
		ts.SpillPacketsOut += st.SpillPacketsOut
		ts.FlushPacketsOut += st.FlushPacketsOut
		ts.PairsFlushed += st.PairsFlushed
		ts.PairsSpillSent += st.PairsSpillSent
		ts.EndPacketsOut += st.EndPacketsOut
		ts.FlushesCompleted += st.FlushesCompleted
	}
	return fmt.Sprintf("events=%d tx=%d elapsed=%d in=%d payload=%v pairs=%v packets=%v "+
		"tree=%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d out=%x",
		cl.Net.Processed(), cl.Net.TotalStats().TxFrames, res.Elapsed, res.TotalPairsIn,
		payload, pairs, packets,
		ts.DataPacketsIn, ts.EndPacketsIn, ts.PairsIn, ts.PairsStored, ts.PairsCombined,
		ts.PairsSpilled, ts.SpillPacketsOut, ts.FlushPacketsOut, ts.PairsFlushed,
		ts.PairsSpillSent, ts.EndPacketsOut, ts.FlushesCompleted, h.Sum(nil))
}

// figure3Splits is the Figure 3 corpus at seed 1, cut for 24 mappers.
func figure3Splits(t testing.TB) [][]string {
	t.Helper()
	corpus, err := workload.Generate(workload.CorpusSpec{
		Seed: 1, Reducers: 12, VocabPerReducer: 2000, MeanMultiplicity: 8.3,
		TableSize: 16384, CollisionFree: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return corpus.Splits(24)
}

// TestRunJobGolden pins RunJob's simulated outcome on the Figure 3
// configuration (seed 1: 24 mappers, 12 reducers, 2000 words per
// reducer, a 16K-slot table, 10 pairs per packet, MSS 1460) for
// WordCount and a max job, in every shuffle mode. The values were
// recorded before the host path stopped allocating per record; any
// change to partitioning, spill order, TCP byte streams or reducer
// decode that moves an event, a frame or an output byte fails here.
func TestRunJobGolden(t *testing.T) {
	splits := figure3Splits(t)
	cfg := ClusterConfig{NumMappers: 24, NumReducers: 12, TableSize: 16384,
		MaxPairsPerPacket: 10, MSS: 1460, Seed: 1, SimWorkers: 1}

	cases := []struct {
		job  Job
		mode Mode
		want string
	}{
		{WordCount, ModeDAIET,
			"events=25138 tx=22738 elapsed=273774 in=199071 " +
				"payload=[43216 43216 43216 43216 43216 43216 43216 43216 43216 43216 43216 43216] pairs=[2000 2000 2000 2000 2000 2000 2000 2000 2000 2000 2000 2000] packets=[201 201 201 201 201 201 201 201 201 201 201 201] " +
				"tree=20038/288/199071/24000/175071/0/0/2400/24000/0/12/12 out=c94b2f9b672a5cb93448899525d793fb7fd37ccd435470a162241086cfe084f8"},
		{WordCount, ModeUDPBaseline,
			"events=40652 tx=40652 elapsed=501206 in=199071 " +
				"payload=[359528 358116 358808 359004 358688 359104 358868 359052 359196 359424 358548 358300] pairs=[16618 16553 16586 16595 16580 16600 16589 16599 16603 16612 16573 16563] packets=[1698 1691 1693 1694 1693 1694 1693 1692 1696 1699 1693 1690] " +
				"tree=0/0/0/0/0/0/0/0/0/0/0/0 out=c94b2f9b672a5cb93448899525d793fb7fd37ccd435470a162241086cfe084f8"},
		{WordCount, ModeTCPBaseline,
			"events=20125 tx=15524 elapsed=40414288 in=199071 " +
				"payload=[332360 331060 331720 331900 331600 332000 331780 331980 332060 332240 331460 331260] pairs=[16618 16553 16586 16595 16580 16600 16589 16599 16603 16612 16573 16563] packets=[335 336 335 335 337 335 337 337 334 336 333 335] " +
				"tree=0/0/0/0/0/0/0/0/0/0/0/0 out=c94b2f9b672a5cb93448899525d793fb7fd37ccd435470a162241086cfe084f8"},
		{maxJob, ModeDAIET,
			"events=25138 tx=22738 elapsed=273774 in=199071 " +
				"payload=[43216 43216 43216 43216 43216 43216 43216 43216 43216 43216 43216 43216] pairs=[2000 2000 2000 2000 2000 2000 2000 2000 2000 2000 2000 2000] packets=[201 201 201 201 201 201 201 201 201 201 201 201] " +
				"tree=20038/288/199071/24000/175071/0/0/2400/24000/0/12/12 out=11ab7d03d876b6b929312c8a5aee54b7152f260d0f5f4aa77945456a864060c3"},
		{maxJob, ModeUDPBaseline,
			"events=40652 tx=40652 elapsed=501206 in=199071 " +
				"payload=[359528 358116 358808 359004 358688 359104 358868 359052 359196 359424 358548 358300] pairs=[16618 16553 16586 16595 16580 16600 16589 16599 16603 16612 16573 16563] packets=[1698 1691 1693 1694 1693 1694 1693 1692 1696 1699 1693 1690] " +
				"tree=0/0/0/0/0/0/0/0/0/0/0/0 out=11ab7d03d876b6b929312c8a5aee54b7152f260d0f5f4aa77945456a864060c3"},
		{maxJob, ModeTCPBaseline,
			"events=20125 tx=15524 elapsed=40414288 in=199071 " +
				"payload=[332360 331060 331720 331900 331600 332000 331780 331980 332060 332240 331460 331260] pairs=[16618 16553 16586 16595 16580 16600 16589 16599 16603 16612 16573 16563] packets=[335 336 335 335 337 335 337 337 334 336 333 335] " +
				"tree=0/0/0/0/0/0/0/0/0/0/0/0 out=11ab7d03d876b6b929312c8a5aee54b7152f260d0f5f4aa77945456a864060c3"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.job.Name+"/"+tc.mode.String(), func(t *testing.T) {
			t.Parallel()
			if got := runJobFingerprint(t, tc.job, splits, cfg, tc.mode); got != tc.want {
				t.Fatalf("RunJob outcome changed:\ngot  %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestSpillBytesGolden pins the mapper-side bytes of the Figure 3 job:
// every spill as the map phase writes it (partitioner and record layout)
// and after the TCP baseline's mapper-side sort (the bytes each TCP
// connection carries), hashed in (mapper, reducer) order.
func TestSpillBytesGolden(t *testing.T) {
	spills, err := runMapPhase(WordCount, figure3Splits(t), 12, wire.DefaultGeometry)
	if err != nil {
		t.Fatal(err)
	}
	hash := func() string {
		h := sha256.New()
		for m := range spills {
			for _, sp := range spills[m] {
				h.Write(sp.data)
				h.Write([]byte{0xff})
			}
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	const (
		wantMapped = "226e0eadbf723d960a19f59e497080b4f6c99ac504967f2ea63aeed7042f3209"
		wantSorted = "7d7fffc0a8295471221957b4ffffdb7cf48ac2cffa6a34b765107fb8331cbbdc"
	)
	if got := hash(); got != wantMapped {
		t.Errorf("mapped spills: got %s, want %s", got, wantMapped)
	}
	for m := range spills {
		for _, sp := range spills[m] {
			sp.sortRecords()
		}
	}
	if got := hash(); got != wantSorted {
		t.Errorf("sorted spills: got %s, want %s", got, wantSorted)
	}
}
