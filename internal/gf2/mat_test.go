package gf2

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentityMul(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := randMat(r, 5, 7)
	i5 := Identity(5)
	if !i5.Mul(a).Equal(a) {
		t.Fatal("I * A != A")
	}
	i7 := Identity(7)
	if !a.Mul(i7).Equal(a) {
		t.Fatal("A * I != A")
	}
}

func TestParseMatAndString(t *testing.T) {
	m := ParseMat("101", "010")
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if m.String() != "101\n010" {
		t.Fatalf("String = %q", m.String())
	}
	if !m.Get(0, 0) || m.Get(0, 1) || !m.Get(1, 1) {
		t.Fatal("entries wrong")
	}
}

func TestMatFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	MatFromRows(NewVec(3), NewVec(4))
}

func TestMulVecAndVecMul(t *testing.T) {
	m := ParseMat(
		"110",
		"011",
	)
	v := ParseVec("101")
	// m * v: row0 . v = 1, row1 . v = 1
	got := m.MulVec(v)
	if got.String() != "11" {
		t.Fatalf("MulVec = %v", got)
	}
	sel := ParseVec("11")
	// sel * m = row0 ^ row1 = 101
	comb := m.VecMul(sel)
	if comb.String() != "101" {
		t.Fatalf("VecMul = %v", comb)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMat(r, 1+r.Intn(12), 1+r.Intn(12))
		return a.Transpose().Transpose().Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMulAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMat(r, 1+r.Intn(8), 1+r.Intn(8))
		b := randMat(r, a.Cols(), 1+r.Intn(8))
		c := randMat(r, b.Cols(), 1+r.Intn(8))
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneDeep(t *testing.T) {
	a := ParseMat("10", "01")
	b := a.Clone()
	b.Set(0, 1)
	if a.Get(0, 1) {
		t.Fatal("Clone shares row storage")
	}
}

func randMat(r *rand.Rand, rows, cols int) Mat {
	m := NewMat(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Intn(2) == 1 {
				m.Set(i, j)
			}
		}
	}
	return m
}

// TestTranspose64MatchesNaive checks the masked-swap transpose against the
// bit-by-bit definition on random, sparse and single-bit matrices, and that
// transposing twice is the identity.
func TestTranspose64MatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	for trial := 0; trial < 200; trial++ {
		var a [64]uint64
		for i := range a {
			switch trial % 3 {
			case 0:
				a[i] = r.Uint64()
			case 1:
				a[i] = r.Uint64() & r.Uint64() & r.Uint64()
			default:
				if r.Intn(8) == 0 {
					a[i] = 1 << uint(r.Intn(64))
				}
			}
		}
		var want [64]uint64
		for i := 0; i < 64; i++ {
			for j := 0; j < 64; j++ {
				want[j] |= (a[i] >> uint(j) & 1) << uint(i)
			}
		}
		got := a
		Transpose64(&got)
		if got != want {
			t.Fatalf("trial %d: transpose differs from the naive one", trial)
		}
		Transpose64(&got)
		if got != a {
			t.Fatalf("trial %d: transposing twice changed the matrix", trial)
		}
	}
}
