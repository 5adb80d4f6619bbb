package gf2

// Elimination holds the result of tracked Gaussian elimination of a matrix A:
// a row-echelon form R and a transform T such that T * A = R, where T is a
// product of elementary row operations (hence invertible).
//
// Rows of R that are identically zero correspond to rows of T that select a
// GF(2) combination of A's original rows summing to zero — exactly the
// "X-free" row combinations used by the X-canceling MISR.
type Elimination struct {
	// R is the row-echelon form of the input.
	R Mat
	// T is the accumulated row-operation transform: T * A == R.
	T Mat
	// Rank is the number of nonzero rows of R.
	Rank int
	// PivotCols[i] is the pivot column of nonzero row i of R.
	PivotCols []int
}

// Eliminate performs Gaussian elimination on a copy of a, tracking row
// operations. The input is not modified.
func Eliminate(a Mat) Elimination {
	r := a.Clone()
	t := Identity(a.Rows())
	rank := 0
	var pivots []int
	for col := 0; col < r.cols && rank < len(r.rows); col++ {
		// Find a pivot at or below row `rank`.
		pivot := -1
		for i := rank; i < len(r.rows); i++ {
			if r.rows[i].Get(col) {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		r.rows[rank], r.rows[pivot] = r.rows[pivot], r.rows[rank]
		t.rows[rank], t.rows[pivot] = t.rows[pivot], t.rows[rank]
		// Clear the column in every other row (reduced row-echelon form).
		for i := 0; i < len(r.rows); i++ {
			if i != rank && r.rows[i].Get(col) {
				r.rows[i].Xor(r.rows[rank])
				t.rows[i].Xor(t.rows[rank])
			}
		}
		pivots = append(pivots, col)
		rank++
	}
	return Elimination{R: r, T: t, Rank: rank, PivotCols: pivots}
}

// Rank returns the rank of a over GF(2).
func Rank(a Mat) int { return Eliminate(a).Rank }

// NullCombinations returns selection vectors s (one per zero row of the
// echelon form) such that s * A = 0: each selects a subset of A's rows whose
// GF(2) sum has no dependence on any column. These are the X-free
// combinations of an X-dependence matrix. The returned vectors are linearly
// independent and there are exactly Rows(a) - Rank(a) of them.
func NullCombinations(a Mat) []Vec {
	e := Eliminate(a)
	out := make([]Vec, 0, a.Rows()-e.Rank)
	for i := e.Rank; i < a.Rows(); i++ {
		out = append(out, e.T.rows[i].Clone())
	}
	return out
}
