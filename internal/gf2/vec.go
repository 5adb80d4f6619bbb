// Package gf2 implements linear algebra over GF(2): bit vectors, bit
// matrices, Gaussian elimination with row-operation tracking, rank and
// null-space computations.
//
// It is the numeric core of the X-canceling MISR machinery: MISR signature
// bits are linear combinations of scan-cell symbols over GF(2), and X-free
// signature combinations are found by eliminating the X-dependence matrix.
package gf2

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vec is a fixed-length bit vector over GF(2). The zero value is an empty
// vector; use NewVec to create one with a given length.
type Vec struct {
	words []uint64
	n     int
}

// NewVec returns a zero vector of n bits.
func NewVec(n int) Vec {
	if n < 0 {
		panic("gf2: negative vector length")
	}
	return Vec{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromBits builds a vector from a slice of 0/1 values (any nonzero is 1).
func FromBits(bits []int) Vec {
	v := NewVec(len(bits))
	for i, b := range bits {
		if b != 0 {
			v.Set(i)
		}
	}
	return v
}

// FromIndices builds an n-bit vector with the given bit positions set.
func FromIndices(n int, idx ...int) Vec {
	v := NewVec(n)
	for _, i := range idx {
		v.Set(i)
	}
	return v
}

// ParseVec parses a string of '0'/'1' runes (other runes are ignored,
// allowing separators) into a vector, most significant bit first position 0.
func ParseVec(s string) Vec {
	var b []int
	for _, r := range s {
		switch r {
		case '0':
			b = append(b, 0)
		case '1':
			b = append(b, 1)
		}
	}
	return FromBits(b)
}

// Len returns the number of bits in the vector.
func (v Vec) Len() int { return v.n }

// Words returns the vector's backing words: bit i is bit i%64 of word i/64,
// and the bits past Len are zero. The slice is shared with v; treat it as
// read-only, unless v is a fresh vector no one else holds yet, which its
// builder may fill through the words as long as the bits past Len stay
// zero.
func (v Vec) Words() []uint64 { return v.words }

// Get reports whether bit i is set.
func (v Vec) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Set sets bit i to 1.
func (v Vec) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear sets bit i to 0.
func (v Vec) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Flip toggles bit i.
func (v Vec) Flip(i int) {
	v.check(i)
	v.words[i/wordBits] ^= 1 << uint(i%wordBits)
}

// SetBool sets bit i to b.
func (v Vec) SetBool(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

func (v Vec) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("gf2: bit index %d out of range [0,%d)", i, v.n))
	}
}

// Xor sets v ^= u in place. The vectors must have equal length.
func (v Vec) Xor(u Vec) {
	v.checkLen(u)
	for i, w := range u.words {
		v.words[i] ^= w
	}
}

// And sets v &= u in place. The vectors must have equal length.
func (v Vec) And(u Vec) {
	v.checkLen(u)
	for i, w := range u.words {
		v.words[i] &= w
	}
}

// AndNot sets v &^= u in place. The vectors must have equal length.
func (v Vec) AndNot(u Vec) {
	v.checkLen(u)
	for i, w := range u.words {
		v.words[i] &^= w
	}
}

// Or sets v |= u in place. The vectors must have equal length.
func (v Vec) Or(u Vec) {
	v.checkLen(u)
	for i, w := range u.words {
		v.words[i] |= w
	}
}

func (v Vec) checkLen(u Vec) {
	if v.n != u.n {
		panic(fmt.Sprintf("gf2: length mismatch %d vs %d", v.n, u.n))
	}
}

// PopCount returns the number of set bits.
func (v Vec) PopCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// PopCountAnd returns popcount(v & u) without allocating.
// The vectors must have equal length.
func (v Vec) PopCountAnd(u Vec) int {
	v.checkLen(u)
	c := 0
	for i, w := range u.words {
		c += bits.OnesCount64(v.words[i] & w)
	}
	return c
}

// IsZero reports whether every bit is 0.
func (v Vec) IsZero() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and u have the same length and bits.
func (v Vec) Equal(u Vec) bool {
	if v.n != u.n {
		return false
	}
	for i, w := range u.words {
		if v.words[i] != w {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	c := Vec{words: make([]uint64, len(v.words)), n: v.n}
	copy(c.words, v.words)
	return c
}

// AndOf materializes (a & b) in a single pass — no Clone-then-And double
// walk over the words. The vectors must have equal length.
func AndOf(a, b Vec) Vec {
	a.checkLen(b)
	v := Vec{words: make([]uint64, len(a.words)), n: a.n}
	for i, w := range b.words {
		v.words[i] = a.words[i] & w
	}
	return v
}

// AndNotOf materializes (a &^ b) in a single pass. The vectors must have
// equal length.
func AndNotOf(a, b Vec) Vec {
	a.checkLen(b)
	v := Vec{words: make([]uint64, len(a.words)), n: a.n}
	for i, w := range b.words {
		v.words[i] = a.words[i] &^ w
	}
	return v
}

// CopyFrom copies u's bits into v. The vectors must have equal length.
func (v Vec) CopyFrom(u Vec) {
	v.checkLen(u)
	copy(v.words, u.words)
}

// Reset clears every bit.
func (v Vec) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// SetAll sets every bit to 1.
func (v Vec) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
}

// trim clears bits past the logical length.
func (v Vec) trim() {
	if v.n%wordBits != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << uint(v.n%wordBits)) - 1
	}
}

// NextSet returns the index of the first set bit at or after i,
// or -1 if there is none.
func (v Vec) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	wi := i / wordBits
	w := v.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// ForEach calls fn for every set bit index in ascending order.
func (v Vec) ForEach(fn func(i int)) {
	for wi, w := range v.words {
		for w != 0 {
			fn(wi*wordBits + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Indices returns the set bit positions in ascending order.
func (v Vec) Indices() []int {
	out := make([]int, 0, v.PopCount())
	v.ForEach(func(i int) { out = append(out, i) })
	return out
}

// Parity returns the XOR of all bits (0 or 1).
func (v Vec) Parity() int {
	var acc uint64
	for _, w := range v.words {
		acc ^= w
	}
	return bits.OnesCount64(acc) & 1
}

// Dot returns the GF(2) inner product of v and u (0 or 1).
// The vectors must have equal length.
func (v Vec) Dot(u Vec) int {
	v.checkLen(u)
	var acc uint64
	for i, w := range u.words {
		acc ^= v.words[i] & w
	}
	return bits.OnesCount64(acc) & 1
}

// Hash returns a 64-bit content hash of the vector (length and bits).
// Equal vectors always hash equal; the per-word splitmix64-style mixing
// keeps unequal vectors from colliding in practice, but callers that use
// the hash as a map key must still verify with Equal on bucket collisions
// (VecSet packages that pattern). The hash is deterministic across runs.
func (v Vec) Hash() uint64 {
	h := hashMix(uint64(v.n) ^ hashSeed)
	for _, w := range v.words {
		h = hashMix(h ^ w)
	}
	return h
}

// HashAnd returns Hash of (v & u) without materializing the intersection.
// The vectors must have equal length.
func (v Vec) HashAnd(u Vec) uint64 {
	v.checkLen(u)
	h := hashMix(uint64(v.n) ^ hashSeed)
	for i, w := range u.words {
		h = hashMix(h ^ (v.words[i] & w))
	}
	return h
}

// hashSeed domain-separates Vec hashes from plain splitmix64 streams.
const hashSeed = 0x9e3779b97f4a7c15

// hashMix is the splitmix64 finalizer: a cheap full-avalanche mix so that
// single-bit differences in any word spread across the whole hash.
func hashMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// String renders the vector as '0'/'1' runes, bit 0 first.
func (v Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
