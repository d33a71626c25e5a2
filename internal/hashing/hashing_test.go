package hashing

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFNVKnownVectors(t *testing.T) {
	// Standard FNV-1a test vectors.
	cases := []struct {
		in  string
		h32 uint32
		h64 uint64
	}{
		{"", 2166136261, 14695981039346656037},
		{"a", 0xe40c292c, 0xaf63dc4c8601ec8c},
		{"foobar", 0xbf9cf968, 0x85944171f73967e8},
	}
	for _, c := range cases {
		if got := FNV1a32([]byte(c.in)); got != c.h32 {
			t.Errorf("FNV1a32(%q) = %#x want %#x", c.in, got, c.h32)
		}
		if got := FNV1a64([]byte(c.in)); got != c.h64 {
			t.Errorf("FNV1a64(%q) = %#x want %#x", c.in, got, c.h64)
		}
	}
}

func TestIndexInRangeProperty(t *testing.T) {
	f := func(key []byte, rawSize uint16) bool {
		size := int(rawSize%16384) + 1
		idx := Index(key, size)
		return idx >= 0 && idx < size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexDeterministic(t *testing.T) {
	key := []byte("hello")
	if Index(key, 1024) != Index(key, 1024) {
		t.Fatal("Index must be deterministic")
	}
}

func TestIndexPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for size 0")
		}
	}()
	Index([]byte("x"), 0)
}

func TestECMPPickInRange(t *testing.T) {
	f := func(key []byte, rawN uint8) bool {
		n := int(rawN%64) + 1
		p := ECMPPick(key, n)
		return p >= 0 && p < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestECMPPickPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for n 0")
		}
	}()
	ECMPPick([]byte("x"), 0)
}

func TestMix64Distinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		h := Mix64(i)
		if seen[h] {
			t.Fatalf("Mix64 collision at %d", i)
		}
		seen[h] = true
	}
	if Mix64(42) != Mix64(42) {
		t.Fatal("Mix64 must be deterministic")
	}
}

func TestCollisionFreeVocabulary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, tableSize = 2000, 16384
	words, err := CollisionFreeVocabulary(rng, n, 16, 16, tableSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != n {
		t.Fatalf("want %d words, got %d", n, len(words))
	}
	seenWord := map[string]bool{}
	seenIdx := map[int]bool{}
	for _, w := range words {
		if len(w) == 0 || len(w) > 16 {
			t.Fatalf("word length out of range: %q", w)
		}
		if seenWord[w] {
			t.Fatalf("duplicate word %q", w)
		}
		seenWord[w] = true
		idx := Index(PadKey([]byte(w), 16), tableSize)
		if seenIdx[idx] {
			t.Fatalf("hash collision for %q at %d", w, idx)
		}
		seenIdx[idx] = true
	}
}

func TestPadKey(t *testing.T) {
	p := PadKey([]byte("ab"), 4)
	if len(p) != 4 || p[0] != 'a' || p[1] != 'b' || p[2] != 0 || p[3] != 0 {
		t.Fatalf("pad %v", p)
	}
	full := []byte("abcd")
	if got := PadKey(full, 4); &got[0] != &full[0] {
		t.Fatal("full-width key must be returned as-is")
	}
	if got := PadKey([]byte("abcde"), 4); len(got) != 5 {
		t.Fatal("over-width key must be unchanged")
	}
}

// TestFNV1a64PaddedMatchesPadKey checks the padded hash against hashing
// the materialized padded key, for every key length from empty to four
// bytes past the width, at several widths (0 included: nothing to pad).
func TestFNV1a64PaddedMatchesPadKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, width := range []int{0, 1, 7, 16, 64} {
		for n := 0; n <= width+4; n++ {
			for trial := 0; trial < 8; trial++ {
				key := make([]byte, n)
				rng.Read(key)
				if trial == 0 {
					clear(key) // all-zero keys collide with their own padding
				}
				want := FNV1a64(PadKey(key, width))
				if got := FNV1a64Padded(string(key), width); got != want {
					t.Fatalf("width %d key %x: FNV1a64Padded %#x, FNV1a64(PadKey) %#x", width, key, got, want)
				}
			}
		}
	}
}

func TestCollisionFreeVocabularyRejectsOverfull(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := CollisionFreeVocabulary(rng, 10, 16, 16, 5); err == nil {
		t.Fatal("want error when n > tableSize")
	}
	if _, err := CollisionFreeVocabulary(rng, 10, 0, 16, 100); err == nil {
		t.Fatal("want error when maxLen < 1")
	}
}

func TestCollisionFreeVocabularyDeterministicPerSeed(t *testing.T) {
	a, err := CollisionFreeVocabulary(rand.New(rand.NewSource(3)), 100, 12, 16, 4096)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CollisionFreeVocabulary(rand.New(rand.NewSource(3)), 100, 12, 16, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("vocabulary not deterministic at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestRandomWordShape(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		w := RandomWord(rng, 16)
		if len(w) < 3 || len(w) > 16 {
			t.Fatalf("word length %d out of [3,16]", len(w))
		}
		for _, c := range w {
			if c < 'a' || c > 'z' {
				t.Fatalf("unexpected rune %q in %q", c, w)
			}
		}
	}
	// maxLen below the usual minimum still works.
	if w := RandomWord(rng, 2); len(w) != 2 {
		t.Fatalf("maxLen=2 word: %q", w)
	}
}
