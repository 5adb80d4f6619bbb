package gf2

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Equal vectors must hash equal, however they were built.
func TestHashEqualVectorsAgree(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%300
		a := randVec(r, n)
		b := NewVec(n)
		b.CopyFrom(a)
		c := a.Clone()
		return a.Hash() == b.Hash() && a.Hash() == c.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Differing vectors must rarely collide: over many random pairs and
// single-bit flips, demand zero collisions (a 64-bit mixed hash colliding
// in a few thousand draws would indicate a broken mixer, not bad luck).
func TestHashRarelyCollides(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	seen := make(map[uint64]Vec)
	collisions := 0
	for i := 0; i < 4000; i++ {
		n := 1 + r.Intn(257)
		v := randVec(r, n)
		h := v.Hash()
		if prev, ok := seen[h]; ok && !prev.Equal(v) {
			collisions++
		}
		seen[h] = v
	}
	// Single-bit flips are the adversarial case for weak mixers.
	base := randVec(r, 192)
	h0 := base.Hash()
	for i := 0; i < 192; i++ {
		base.Flip(i)
		if base.Hash() == h0 {
			collisions++
		}
		base.Flip(i)
	}
	if collisions != 0 {
		t.Fatalf("%d hash collisions across random and bit-flip probes", collisions)
	}
}

// Length participates in the hash: a short vector and its zero-extended
// sibling are different vectors and should not collide systematically.
func TestHashLengthSensitive(t *testing.T) {
	a := NewVec(64)
	b := NewVec(128)
	if a.Hash() == b.Hash() {
		t.Fatal("zero vectors of different lengths hash equal")
	}
}

// HashAnd must equal Hash of the materialized intersection.
func TestHashAndVariantsMatchMaterialized(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%300
		a, b := randVec(r, n), randVec(r, n)
		return a.HashAnd(b) == AndOf(a, b).Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVecSetDedup(t *testing.T) {
	s := NewVecSet()
	a := ParseVec("1010")
	b := ParseVec("0110")
	id0, existed := s.Add(a)
	if id0 != 0 || existed {
		t.Fatalf("first Add = (%d,%t), want (0,false)", id0, existed)
	}
	if id, existed := s.Add(a.Clone()); id != 0 || !existed {
		t.Fatalf("repeat Add = (%d,%t), want (0,true)", id, existed)
	}
	if id, existed := s.Add(b); id != 1 || existed {
		t.Fatalf("second Add = (%d,%t), want (1,false)", id, existed)
	}
	if got := s.Vec(1); !got.Equal(ParseVec("0110")) {
		t.Fatalf("Vec(1) = %v, want 0110", got)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

// With a constant hash every vector lands in one chain: the set must still
// deduplicate purely via the equality verification.
func TestVecSetCollisionPathStillDedups(t *testing.T) {
	const h = 42
	s := NewVecSet()
	r := rand.New(rand.NewSource(7))
	var vecs []Vec
	for i := 0; i < 50; i++ {
		vecs = append(vecs, randVec(r, 96))
	}
	ids := make(map[int]Vec)
	for _, v := range vecs {
		id, _ := s.AddWithHash(h, v)
		if prev, ok := ids[id]; ok && !prev.Equal(v) {
			t.Fatalf("id %d assigned to unequal vectors under forced collisions", id)
		}
		ids[id] = v
	}
	for _, v := range vecs {
		id, existed := s.AddWithHash(h, v.Clone())
		if !existed || !s.Vec(id).Equal(v) {
			t.Fatalf("forced-collision set lost vector %v", v)
		}
	}
}

func BenchmarkVecHash(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	v := randVec(r, 3000) // one CKT-scale pattern bitset: 47 words
	u := randVec(r, 3000)
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink ^= v.Hash()
		}
		_ = sink
	})
	b.Run("hashand", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink ^= v.HashAnd(u)
		}
		_ = sink
	})
	b.Run("string-key", func(b *testing.B) {
		// The allocation the hash replaces: the old dedup built this string
		// per probed candidate.
		b.ReportAllocs()
		var sink int
		for i := 0; i < b.N; i++ {
			and := v.Clone()
			and.And(u)
			sink += len(and.String())
		}
		_ = sink
	})
}
