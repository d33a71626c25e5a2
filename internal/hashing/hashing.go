// Package hashing provides the key-hashing primitives shared by the DAIET
// dataplane program and the end-host library.
//
// The paper (§4) hashes each key to an index into the per-tree key/value
// register arrays ("a hash function is used to convert a key to an index in
// the array", with single-slot buckets and a spillover queue on collision).
// Programmable switch ASICs expose cheap non-cryptographic hashes (CRC
// variants); we model that with FNV-1a, which has the same cost/quality
// class and is trivially expressible in match-action hardware.
package hashing

// FNV-1a constants (64-bit).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// FNV1a64 returns the 64-bit FNV-1a hash of b.
func FNV1a64(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// FNV1a64Padded returns FNV1a64(PadKey([]byte(key), width)) without
// building the padded copy: the key's bytes, then one zero byte per
// position up to width (XOR with zero leaves the state unchanged, so each
// pad byte is one multiply). Keys at or beyond width hash as they are.
func FNV1a64Padded(key string, width int) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	for i := len(key); i < width; i++ {
		h *= fnvPrime64
	}
	return h
}

// FNV1a32 returns the 32-bit FNV-1a hash of b. The 32-bit variant is what a
// P4 target's hash extern typically produces.
func FNV1a32(b []byte) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, c := range b {
		h ^= uint32(c)
		h *= prime32
	}
	return h
}

// Index maps key bytes into [0, size). size must be > 0; Index panics
// otherwise because a zero-sized register array is a programming error that
// must fail loudly at configuration time, not corrupt state at run time.
func Index(key []byte, size int) int {
	if size <= 0 {
		panic("hashing: Index with non-positive size")
	}
	return int(FNV1a64(key) % uint64(size))
}

// Mix64 is a cheap integer finalizer (SplitMix64) used wherever the
// simulator needs to derive independent sub-seeds from one experiment seed.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ECMPPick selects one of n equal-cost paths from flow-identifying bytes,
// mirroring how a switch hashes the 5-tuple onto a next hop. n must be > 0.
func ECMPPick(flowKey []byte, n int) int {
	if n <= 0 {
		panic("hashing: ECMPPick with non-positive n")
	}
	return int(FNV1a32(flowKey) % uint32(n))
}
