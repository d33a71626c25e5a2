package mapreduce

import "testing"

// BenchmarkRunJobWordCount measures one Figure 3 WordCount job (24
// mappers, 12 reducers, 2000 words per reducer at seed 1) per shuffle
// mode: map phase, simulated shuffle, reduce and the reference check.
// Each iteration runs on a fresh cluster, whose construction is not
// timed.
func BenchmarkRunJobWordCount(b *testing.B) {
	splits := figure3Splits(b)
	for _, mode := range []Mode{ModeDAIET, ModeUDPBaseline, ModeTCPBaseline} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cl, err := NewCluster(ClusterConfig{NumMappers: 24, NumReducers: 12, TableSize: 16384,
					MaxPairsPerPacket: 10, MSS: 1460, Seed: 1, SimWorkers: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := cl.RunJob(WordCount, splits, mode); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				cl.Net.Close()
				b.StartTimer()
			}
		})
	}
}
