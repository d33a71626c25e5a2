package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"github.com/daiet/daiet/internal/netsim"
)

// TestFanInGolden pins the result counters of the reliable fan-in
// experiments (incast, bigincast, tenants) and the SHA-256 of both
// registered timelines to values recorded before the three experiments
// shared one driver. The determinism suites only compare the code with
// itself at other domain counts; these constants catch a change that
// shifts every count the same way. Only counters are rendered, never Cfg,
// so config fields may come and go without touching the pins.
func TestFanInGolden(t *testing.T) {
	incast := func(cfg IncastConfig) func() (string, error) {
		return func() (string, error) {
			r, err := Incast(cfg)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("att=%d drop=%d rate=%v tx=%d retx=%d pairs=%d compl=%d",
				r.FramesAttempted, r.FramesDropped, r.DropRatePct,
				r.Transmissions, r.Retransmissions, r.PairsSent, r.Completion), nil
		}
	}
	big := func(cfg BigIncastConfig) func() (string, error) {
		return func() (string, error) {
			r, err := BigIncast(cfg)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("att=%d drop=%d rate=%v tx=%d retx=%d pairs=%d swretx=%d stalls=%d "+
				"hw=%v fair=%v compl=%d events=%d frames=%d arena=%+v domains=%d recuts=%d sync=%+v",
				r.FramesAttempted, r.FramesDropped, r.DropRatePct,
				r.Transmissions, r.Retransmissions, r.PairsSent,
				r.SwitchRetransmissions, r.FlushStalls, r.PoolHighWaterPct, r.PortFairness,
				r.Completion, r.Events, r.Frames, r.ArenaStats, r.Domains, r.Recuts, r.Sync), nil
		}
	}
	tenants := func(cfg TenantsConfig) func() (string, error) {
		return func() (string, error) {
			r, err := Tenants(cfg)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("victim=%d/%d agg=%d/%d pool=%d/%d compl=%d/%d",
				r.VictimAttempted, r.VictimDropped, r.AggAttempted, r.AggDropped,
				r.VictimPoolDrops, r.AggPoolDrops, r.VictimCompletion, r.AggCompletion), nil
		}
	}
	timeline := func(name string) func() (string, error) {
		return func() (string, error) {
			tl, err := LookupTimeline(name).Run(Trial{Seed: 11, Scale: 0.08, SimWorkers: 1})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%x", sha256.Sum256(tl.DeterministicBytes())), nil
		}
	}

	// SimWorkers is pinned: at 0 the domain count (and with it the arena
	// and sync diagnostics) would follow the host's GOMAXPROCS.
	dt := smallBig()
	dt.SimWorkers = 1
	static := dt
	static.StaticPartition = true
	shortCut := smallBig()
	shortCut.CorePropagation = 20 * time.Microsecond
	shortCut.ShortCutPropagation = 200 * time.Nanosecond
	shortCut.SyncProtocol = netsim.SyncGlobal
	shortCut.SimWorkers = 2
	contended := TenantsConfig{Seed: 5, VictimSenders: 3, VictimPairs: 120,
		AggSenders: 8, AggPairs: 300, VictimReserve: 2 << 10, AggAlpha: 1024}
	victimOnly := contended
	victimOnly.VictimOnly = true

	cases := []struct {
		name string
		run  func() (string, error)
		want string
	}{
		{"incast/sync-2KiB",
			incast(IncastConfig{Seed: 3, Senders: 8, PairsPerSender: 300, QueueBytes: 2048}),
			"att=628 drop=340 rate=54.14012738853503 tx=628 retx=391 pairs=2250 compl=2576136"},
		{"incast/jitter-4KiB-100us",
			incast(IncastConfig{Seed: 3, Senders: 8, PairsPerSender: 300,
				QueueBytes: 4096, StartJitter: 100 * time.Microsecond}),
			"att=363 drop=110 rate=30.303030303030305 tx=363 retx=126 pairs=2250 compl=1619640"},
		{"bigincast/dt", big(dt),
			"att=4780 drop=910 rate=19.03765690376569 tx=693 retx=0 pairs=6496 swretx=954 stalls=1555 " +
				"hw=40.730794270833336 fair=0.9996985338097671 compl=2587754 events=9287 frames=5158 " +
				"arena={FrameCap:851 FrameLive:0 FramePeak:851 TimerCap:1136 TimerPeak:1136 Bytes:73552} " +
				"domains=1 recuts=0 sync={Barriers:0 Windows:0 IdleWindows:0 MailFlushed:0 HorizonSum:0s HorizonN:0}"},
		{"bigincast/static", big(static),
			"att=12217 drop=8311 rate=68.02815748547107 tx=693 retx=0 pairs=6496 swretx=8373 stalls=11343 " +
				"hw=7.661946614583333 fair=0.9996985338097671 compl=15138904 events=19160 frames=5194 " +
				"arena={FrameCap:725 FrameLive:0 FramePeak:725 TimerCap:749 TimerPeak:749 Bytes:65616} " +
				"domains=1 recuts=0 sync={Barriers:0 Windows:0 IdleWindows:0 MailFlushed:0 HorizonSum:0s HorizonN:0}"},
		{"bigincast/shortcut-global-2w", big(shortCut),
			"att=4782 drop=910 rate=19.02969468841489 tx=693 retx=0 pairs=6496 swretx=954 stalls=1628 " +
				"hw=40.730794270833336 fair=0.9996985338097671 compl=2613508 events=9363 frames=5160 " +
				"arena={FrameCap:842 FrameLive:0 FramePeak:842 TimerCap:1138 TimerPeak:1138 Bytes:83376} " +
				"domains=2 recuts=0 sync={Barriers:3586 Windows:5494 IdleWindows:1678 MailFlushed:1932 " +
				"HorizonSum:956.732µs HorizonN:5494}"},
		{"tenants/contended", tenants(contended),
			"victim=72/0 agg=534/61 pool=0/61 compl=616504/4938904"},
		{"tenants/victim-only", tenants(victimOnly),
			"victim=72/0 agg=0/0 pool=0/0 compl=616504/0"},
		{"timeline/megaincast", timeline("megaincast"),
			"4fa3ef8723825a2f83495da24cf2c784c572c9e628519eb34ae2d1dd3c028a92"},
		{"timeline/tenants", timeline("tenants"),
			"a21790846a25cdf0b1b9edd6acb4352a9bb5c6059ec7f0c9c0ad45e981f47795"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("counters changed:\ngot  %s\nwant %s", got, tc.want)
			}
		})
	}
}
