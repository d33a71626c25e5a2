// Package workload generates the synthetic inputs the experiments consume:
// the paper's WordCount corpus ("a 500 MB file containing random words that
// are not causing hash collisions", §5) with controllable vocabulary size,
// word multiplicity and collision behaviour.
package workload

import (
	"fmt"
	"math/rand"

	"github.com/daiet/daiet/internal/hashing"
)

// PartitionOf maps a word to its reducer partition. It must be shared by
// the corpus generator (which calibrates per-partition vocabularies) and
// the MapReduce partitioner.
//
// The raw FNV hash is deliberately passed through Mix64 first: the switch's
// register index is FNV1a64 mod tableSize, and FNV's low bits are weak
// enough that `FNV mod nReducers` and `FNV mod tableSize` correlate
// strongly when both moduli are powers of two — which would quietly shrink
// each partition's usable register space. The finalizer decorrelates them.
func PartitionOf(word string, keyWidth, nReducers int) int {
	if nReducers <= 0 {
		panic("workload: PartitionOf with nReducers <= 0")
	}
	return int(hashing.Mix64(hashing.FNV1a64Padded(word, keyWidth)) % uint64(nReducers))
}

// CorpusSpec parameterizes corpus generation.
type CorpusSpec struct {
	Seed uint64
	// Reducers is the number of partitions.
	Reducers int
	// VocabPerReducer is the number of distinct words per partition. With
	// CollisionFree set it must be <= TableSize.
	VocabPerReducer int
	// MeanMultiplicity is the average number of occurrences per word. The
	// paper's Figure-3 operating point corresponds to ~8-9 (data reduction
	// 1 - 1/m ~= 88%).
	MeanMultiplicity float64
	// MaxWordLen bounds word length (paper: 16).
	MaxWordLen int
	// KeyWidth is the fixed key width words will be padded to on the wire.
	KeyWidth int
	// TableSize is the per-tree register table size words must fit.
	TableSize int
	// CollisionFree makes each partition's vocabulary collision-free under
	// the switch's register hash (the paper's prototype requirement).
	CollisionFree bool
	// Skewed draws multiplicities from a heavy-tailed distribution instead
	// of concentrating near the mean (an ablation knob; the paper's random
	// corpus is unskewed).
	Skewed bool
}

func (s CorpusSpec) withDefaults() CorpusSpec {
	if s.Reducers == 0 {
		s.Reducers = 1
	}
	if s.VocabPerReducer == 0 {
		s.VocabPerReducer = 1024
	}
	if s.MeanMultiplicity == 0 {
		s.MeanMultiplicity = 8.3
	}
	if s.MaxWordLen == 0 {
		s.MaxWordLen = 16
	}
	if s.KeyWidth == 0 {
		s.KeyWidth = 16
	}
	if s.TableSize == 0 {
		s.TableSize = 16384
	}
	return s
}

// Corpus is a generated word stream plus its bookkeeping.
type Corpus struct {
	Spec CorpusSpec
	// Stream is the full shuffled word sequence (the input "file").
	Stream []string
	// Vocab holds each partition's distinct words.
	Vocab [][]string
	// TotalWords is len(Stream); UniqueWords the summed vocabulary sizes.
	TotalWords  int
	UniqueWords int
}

// Generate builds a corpus per spec. Generation is deterministic per seed.
func Generate(spec CorpusSpec) (*Corpus, error) {
	spec = spec.withDefaults()
	if spec.CollisionFree && spec.VocabPerReducer > spec.TableSize {
		return nil, fmt.Errorf("workload: %d words per partition exceed table size %d",
			spec.VocabPerReducer, spec.TableSize)
	}
	if spec.MaxWordLen > spec.KeyWidth {
		return nil, fmt.Errorf("workload: max word length %d exceeds key width %d",
			spec.MaxWordLen, spec.KeyWidth)
	}
	rng := rand.New(rand.NewSource(int64(hashing.Mix64(spec.Seed))))

	c := &Corpus{Spec: spec, Vocab: make([][]string, spec.Reducers)}
	usedWord := make(map[string]bool)
	// usedIdx tracks per-partition occupied register slots (collision-free
	// mode only).
	usedIdx := make([]map[int]bool, spec.Reducers)
	for i := range usedIdx {
		usedIdx[i] = make(map[int]bool)
	}
	need := spec.Reducers * spec.VocabPerReducer
	budget := 500*need + 100_000
	for done := 0; done < need; {
		if budget == 0 {
			return nil, fmt.Errorf("workload: could not place %d words (placed %d)", need, done)
		}
		budget--
		w := hashing.RandomWord(rng, spec.MaxWordLen)
		if usedWord[w] {
			continue
		}
		p := PartitionOf(w, spec.KeyWidth, spec.Reducers)
		if len(c.Vocab[p]) >= spec.VocabPerReducer {
			continue
		}
		if spec.CollisionFree {
			// The register index of the padded key, as hashing.Index computes
			// it; TableSize >= VocabPerReducer > 0 here.
			idx := int(hashing.FNV1a64Padded(w, spec.KeyWidth) % uint64(spec.TableSize))
			if usedIdx[p][idx] {
				continue
			}
			usedIdx[p][idx] = true
		}
		usedWord[w] = true
		c.Vocab[p] = append(c.Vocab[p], w)
		done++
	}

	// Emit each word MeanMultiplicity times on average.
	for p := range c.Vocab {
		for _, w := range c.Vocab[p] {
			m := multiplicity(rng, spec)
			for i := 0; i < m; i++ {
				c.Stream = append(c.Stream, w)
			}
		}
	}
	rng.Shuffle(len(c.Stream), func(i, j int) {
		c.Stream[i], c.Stream[j] = c.Stream[j], c.Stream[i]
	})
	c.TotalWords = len(c.Stream)
	c.UniqueWords = need
	return c, nil
}

// multiplicity samples one word's occurrence count, mean MeanMultiplicity,
// minimum 1.
func multiplicity(rng *rand.Rand, spec CorpusSpec) int {
	mean := spec.MeanMultiplicity
	if spec.Skewed {
		// Geometric-ish heavy tail with the requested mean.
		p := 1.0 / mean
		m := 1
		for rng.Float64() > p && m < int(mean*50) {
			m++
		}
		return m
	}
	// Concentrated: floor(mean) or ceil(mean) with the right probability.
	lo := int(mean)
	frac := mean - float64(lo)
	if rng.Float64() < frac {
		return lo + 1
	}
	if lo < 1 {
		return 1
	}
	return lo
}

// Splits cuts the stream into n contiguous splits (the mappers' input
// shards), sizes differing by at most one.
func (c *Corpus) Splits(n int) [][]string {
	if n <= 0 {
		panic("workload: Splits with n <= 0")
	}
	out := make([][]string, n)
	base := len(c.Stream) / n
	rem := len(c.Stream) % n
	pos := 0
	for i := 0; i < n; i++ {
		sz := base
		if i < rem {
			sz++
		}
		out[i] = c.Stream[pos : pos+sz]
		pos += sz
	}
	return out
}
