package gf2

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The fused kernels must agree exactly with the compose-then-measure path
// they replace, over random vectors of every word-boundary shape.
func TestFusedKernelsMatchMaterialized(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%300
		a, b := randVec(r, n), randVec(r, n)

		and := a.Clone()
		and.And(b)
		andNot := a.Clone()
		andNot.AndNot(b)

		return AndOf(a, b).Equal(and) && AndNotOf(a, b).Equal(andNot)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The fused constructors allocate fresh storage: mutating the result must
// not reach back into either operand.
func TestAndOfIndependence(t *testing.T) {
	a := FromIndices(130, 0, 64, 129)
	b := FromIndices(130, 0, 129)
	v := AndOf(a, b)
	v.Flip(1)
	if a.Get(1) || b.Get(1) {
		t.Fatal("AndOf shares storage with an operand")
	}
	w := AndNotOf(a, b)
	w.Flip(2)
	if a.Get(2) || b.Get(2) {
		t.Fatal("AndNotOf shares storage with an operand")
	}
}

func TestFusedLengthMismatchPanics(t *testing.T) {
	a, b := NewVec(10), NewVec(11)
	for name, fn := range map[string]func(){
		"AndOf":    func() { AndOf(a, b) },
		"AndNotOf": func() { AndNotOf(a, b) },
		"HashAnd":  func() { a.HashAnd(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

// AddWithHash handed the canonical hash must behave exactly like Add —
// same ids, same dedup.
func TestVecSetWithHashVariants(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := NewVecSet()
	ref := NewVecSet()
	for i := 0; i < 200; i++ {
		v := randVec(r, 193)
		if i%3 == 2 {
			// Repeat an earlier vector so both sets take the dedup path.
			v = ref.Vec(r.Intn(ref.Len())).Clone()
		}
		idV, exV := s.AddWithHash(v.Hash(), v)
		idRV, exRV := ref.Add(v)
		if idV != idRV || exV != exRV {
			t.Fatalf("AddWithHash diverged at %d: (%d,%v) vs (%d,%v)", i, idV, exV, idRV, exRV)
		}
	}
	if s.Len() != ref.Len() {
		t.Fatalf("set sizes diverged: %d vs %d", s.Len(), ref.Len())
	}
}
