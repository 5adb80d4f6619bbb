package gf2

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEliminateTransformIdentity(t *testing.T) {
	// T * A == R must hold for random matrices.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMat(r, 1+r.Intn(15), 1+r.Intn(15))
		e := Eliminate(a)
		return e.T.Mul(a).Equal(e.R)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRankBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(20), 1+r.Intn(20)
		a := randMat(r, rows, cols)
		rk := Rank(a)
		if rk < 0 || rk > rows || rk > cols {
			return false
		}
		// Rank is invariant under transposition.
		return Rank(a.Transpose()) == rk
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRankKnownCases(t *testing.T) {
	if got := Rank(Identity(6)); got != 6 {
		t.Fatalf("Rank(I6) = %d", got)
	}
	if got := Rank(NewMat(4, 4)); got != 0 {
		t.Fatalf("Rank(0) = %d", got)
	}
	m := ParseMat("110", "011", "101") // row3 = row1 ^ row2
	if got := Rank(m); got != 2 {
		t.Fatalf("Rank = %d, want 2", got)
	}
}

func TestNullCombinationsKillAllColumns(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 2+r.Intn(15), 1+r.Intn(10)
		a := randMat(r, rows, cols)
		sels := NullCombinations(a)
		if len(sels) != rows-Rank(a) {
			return false
		}
		for _, s := range sels {
			if s.IsZero() {
				return false // must be a nontrivial combination
			}
			if !a.VecMul(s).IsZero() {
				return false // combination must cancel every column
			}
		}
		// Selections must be linearly independent.
		if len(sels) > 0 && Rank(MatFromRows(cloneAll(sels)...)) != len(sels) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func cloneAll(vs []Vec) []Vec {
	out := make([]Vec, len(vs))
	for i, v := range vs {
		out[i] = v.Clone()
	}
	return out
}

// The Figure 3 fixture from the paper: a 6-bit MISR with 4 X symbols has the
// X-dependence rows below (reconstructed from the printed M1..M6 equations);
// Gaussian elimination must find exactly two X-free combinations, and
// {M1,M3,M5} and {M1,M4} must both be in their span.
func TestFigure3XFreeRows(t *testing.T) {
	// Columns are X1..X4. Rows M1..M6.
	a := ParseMat(
		"1000", // M1 = X1 ^ ...
		"1110", // M2 = X1 ^ X2 ^ X3 ^ ...
		"0010", // M3 = X3 ^ ...
		"1000", // M4 = X1 ^ ...
		"1010", // M5 = X1 ^ X3 ^ ...
		"0011", // M6 = X3 ^ X4
	)
	if got := Rank(a); got != 4 {
		t.Fatalf("rank = %d, want 4", got)
	}
	sels := NullCombinations(a)
	if len(sels) != 2 {
		t.Fatalf("got %d X-free combinations, want 2", len(sels))
	}
	// The paper's combinations.
	m135 := FromIndices(6, 0, 2, 4)
	m14 := FromIndices(6, 0, 3)
	for _, want := range []Vec{m135, m14} {
		if !a.VecMul(want).IsZero() {
			t.Fatalf("paper combination %v is not X-free under our rows", want)
		}
		if !inSpan(sels, want) {
			t.Fatalf("paper combination %v not in span of found combinations", want)
		}
	}
}

// inSpan reports whether target is a GF(2) combination of basis vectors.
func inSpan(basis []Vec, target Vec) bool {
	if len(basis) == 0 {
		return target.IsZero()
	}
	rows := make([]Vec, len(basis))
	for i, b := range basis {
		rows[i] = b.Clone()
	}
	withTarget := append(append([]Vec{}, rows...), target.Clone())
	return Rank(MatFromRows(rows...)) == Rank(MatFromRows(withTarget...))
}
