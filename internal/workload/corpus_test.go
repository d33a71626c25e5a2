package workload

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"github.com/daiet/daiet/internal/hashing"
)

func TestGenerateDefaults(t *testing.T) {
	c, err := Generate(CorpusSpec{Seed: 1, Reducers: 4, VocabPerReducer: 50, MeanMultiplicity: 5})
	if err != nil {
		t.Fatal(err)
	}
	if c.UniqueWords != 200 {
		t.Fatalf("unique %d", c.UniqueWords)
	}
	mean := float64(c.TotalWords) / float64(c.UniqueWords)
	if math.Abs(mean-5) > 0.5 {
		t.Fatalf("mean multiplicity %.2f want ~5", mean)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := CorpusSpec{Seed: 42, Reducers: 3, VocabPerReducer: 30, MeanMultiplicity: 4}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Stream) != len(b.Stream) {
		t.Fatal("stream lengths differ")
	}
	for i := range a.Stream {
		if a.Stream[i] != b.Stream[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestPartitionAgreement(t *testing.T) {
	// Every word in partition p's vocabulary must map back to partition p
	// under the shared partitioner — otherwise the register-table sizing
	// guarantee breaks.
	c, err := Generate(CorpusSpec{Seed: 7, Reducers: 6, VocabPerReducer: 40, MeanMultiplicity: 3})
	if err != nil {
		t.Fatal(err)
	}
	for p, vocab := range c.Vocab {
		if len(vocab) != 40 {
			t.Fatalf("partition %d has %d words", p, len(vocab))
		}
		for _, w := range vocab {
			if got := PartitionOf(w, c.Spec.KeyWidth, 6); got != p {
				t.Fatalf("word %q in vocab %d partitions to %d", w, p, got)
			}
		}
	}
}

func TestCollisionFreePerPartition(t *testing.T) {
	const tableSize = 512
	c, err := Generate(CorpusSpec{
		Seed: 3, Reducers: 4, VocabPerReducer: 100,
		MeanMultiplicity: 2, TableSize: tableSize, CollisionFree: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for p, vocab := range c.Vocab {
		seen := map[int]bool{}
		for _, w := range vocab {
			idx := hashing.Index(hashing.PadKey([]byte(w), c.Spec.KeyWidth), tableSize)
			if seen[idx] {
				t.Fatalf("partition %d: register collision for %q", p, w)
			}
			seen[idx] = true
		}
	}
}

func TestGenerateRejectsImpossibleSpecs(t *testing.T) {
	if _, err := Generate(CorpusSpec{Reducers: 1, VocabPerReducer: 100, TableSize: 50, CollisionFree: true}); err == nil {
		t.Fatal("vocab > table size must fail")
	}
	if _, err := Generate(CorpusSpec{MaxWordLen: 20, KeyWidth: 16}); err == nil {
		t.Fatal("word length > key width must fail")
	}
}

func TestSplits(t *testing.T) {
	c, err := Generate(CorpusSpec{Seed: 1, Reducers: 2, VocabPerReducer: 20, MeanMultiplicity: 3})
	if err != nil {
		t.Fatal(err)
	}
	splits := c.Splits(7)
	total := 0
	min, max := len(c.Stream), 0
	for _, s := range splits {
		total += len(s)
		if len(s) < min {
			min = len(s)
		}
		if len(s) > max {
			max = len(s)
		}
	}
	if total != len(c.Stream) {
		t.Fatalf("splits lose words: %d vs %d", total, len(c.Stream))
	}
	if max-min > 1 {
		t.Fatalf("unbalanced splits: min %d max %d", min, max)
	}
}

func TestSkewedMultiplicity(t *testing.T) {
	c, err := Generate(CorpusSpec{
		Seed: 5, Reducers: 1, VocabPerReducer: 500, MeanMultiplicity: 8, Skewed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(c.TotalWords) / float64(c.UniqueWords)
	if mean < 5 || mean > 12 {
		t.Fatalf("skewed mean %.2f outside sanity band", mean)
	}
	// Skew implies some word appears much more often than the mean.
	counts := map[string]int{}
	for _, w := range c.Stream {
		counts[w]++
	}
	maxC := 0
	for _, n := range counts {
		if n > maxC {
			maxC = n
		}
	}
	if maxC < int(2.5*mean) {
		t.Fatalf("no heavy tail: max count %d mean %.1f", maxC, mean)
	}
}

// TestPartitionOfAllocatesNothing pins the map phase's per-record cost:
// partitioning hashes the padded key without building it.
func TestPartitionOfAllocatesNothing(t *testing.T) {
	words := []string{"", "a", "wordcount", "sixteen-byte-key", "longer-than-the-key-width"}
	if n := testing.AllocsPerRun(100, func() {
		for _, w := range words {
			PartitionOf(w, 16, 12)
		}
	}); n != 0 {
		t.Fatalf("PartitionOf allocates %v times per run", n)
	}
}

func TestPartitionOfPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	PartitionOf("x", 16, 0)
}

// TestGenerateGolden pins the Figure 3 corpus (seed 1: 12 partitions of
// 2000 collision-free words, mean multiplicity 8.3, a 16K-slot table):
// a SHA-256 over every partition's vocabulary and one over the shuffled
// stream, recorded before the partitioner stopped building padded keys.
// TestGenerateDeterministic only compares two runs of the same code, so
// a partitioner or slot-check change that moves any word shows up here.
func TestGenerateGolden(t *testing.T) {
	c, err := Generate(CorpusSpec{Seed: 1, Reducers: 12, VocabPerReducer: 2000,
		MeanMultiplicity: 8.3, TableSize: 16384, CollisionFree: true})
	if err != nil {
		t.Fatal(err)
	}
	vocab := sha256.New()
	for _, words := range c.Vocab {
		for _, w := range words {
			vocab.Write([]byte(w))
			vocab.Write([]byte{0})
		}
		vocab.Write([]byte{0xff})
	}
	stream := sha256.New()
	for _, w := range c.Stream {
		stream.Write([]byte(w))
		stream.Write([]byte{0})
	}
	const (
		wantVocab  = "856cfe525d5277b401933ef2d319457311328fcf949e2d83e74f36e04e2b2eab"
		wantStream = "5c7716b35f43a0a8524cec3af2b11ae3bf5ff57ab0a48408b181dc7832f9f681"
	)
	if got := fmt.Sprintf("%x", vocab.Sum(nil)); got != wantVocab {
		t.Errorf("vocabulary: got %s, want %s", got, wantVocab)
	}
	if got := fmt.Sprintf("%x", stream.Sum(nil)); got != wantStream {
		t.Errorf("stream: got %s, want %s", got, wantStream)
	}
	if c.TotalWords != 199071 {
		t.Errorf("total words %d", c.TotalWords)
	}
}
