package gf2

import (
	"fmt"
	"strings"
)

// Mat is a dense matrix over GF(2), stored as one Vec per row.
type Mat struct {
	rows []Vec
	cols int
}

// NewMat returns a zero matrix with r rows and c columns.
func NewMat(r, c int) Mat {
	if r < 0 || c < 0 {
		panic("gf2: negative matrix dimension")
	}
	m := Mat{rows: make([]Vec, r), cols: c}
	for i := range m.rows {
		m.rows[i] = NewVec(c)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.rows[i].Set(i)
	}
	return m
}

// MatFromRows builds a matrix from row vectors, which must share a length.
// The rows are used directly (not copied).
func MatFromRows(rows ...Vec) Mat {
	if len(rows) == 0 {
		return Mat{}
	}
	c := rows[0].Len()
	for _, r := range rows {
		if r.Len() != c {
			panic("gf2: ragged rows")
		}
	}
	return Mat{rows: rows, cols: c}
}

// ParseMat parses a matrix from rows of '0'/'1' strings.
func ParseMat(rows ...string) Mat {
	vs := make([]Vec, len(rows))
	for i, s := range rows {
		vs[i] = ParseVec(s)
	}
	return MatFromRows(vs...)
}

// Rows returns the number of rows.
func (m Mat) Rows() int { return len(m.rows) }

// Cols returns the number of columns.
func (m Mat) Cols() int { return m.cols }

// Row returns row i (shared storage, not a copy).
func (m Mat) Row(i int) Vec { return m.rows[i] }

// Get reports the bit at (r, c).
func (m Mat) Get(r, c int) bool { return m.rows[r].Get(c) }

// Set sets the bit at (r, c) to 1.
func (m Mat) Set(r, c int) { m.rows[r].Set(c) }

// SetBool sets the bit at (r, c) to b.
func (m Mat) SetBool(r, c int, b bool) { m.rows[r].SetBool(c, b) }

// Clone returns a deep copy of m.
func (m Mat) Clone() Mat {
	c := Mat{rows: make([]Vec, len(m.rows)), cols: m.cols}
	for i, r := range m.rows {
		c.rows[i] = r.Clone()
	}
	return c
}

// Equal reports whether m and o have identical shape and entries.
func (m Mat) Equal(o Mat) bool {
	if len(m.rows) != len(o.rows) || m.cols != o.cols {
		return false
	}
	for i, r := range m.rows {
		if !r.Equal(o.rows[i]) {
			return false
		}
	}
	return true
}

// MulVec returns m * v (treating v as a column vector of length Cols).
func (m Mat) MulVec(v Vec) Vec {
	if v.Len() != m.cols {
		panic(fmt.Sprintf("gf2: MulVec dimension mismatch %d vs %d", v.Len(), m.cols))
	}
	out := NewVec(len(m.rows))
	for i, r := range m.rows {
		if r.Dot(v) == 1 {
			out.Set(i)
		}
	}
	return out
}

// VecMul returns v * m (treating v as a row vector of length Rows),
// i.e. the GF(2) combination of m's rows selected by v.
func (m Mat) VecMul(v Vec) Vec {
	if v.Len() != len(m.rows) {
		panic(fmt.Sprintf("gf2: VecMul dimension mismatch %d vs %d", v.Len(), len(m.rows)))
	}
	out := NewVec(m.cols)
	v.ForEach(func(i int) { out.Xor(m.rows[i]) })
	return out
}

// Mul returns m * o.
func (m Mat) Mul(o Mat) Mat {
	if m.cols != len(o.rows) {
		panic(fmt.Sprintf("gf2: Mul dimension mismatch %d vs %d", m.cols, len(o.rows)))
	}
	out := NewMat(len(m.rows), o.cols)
	for i, r := range m.rows {
		acc := out.rows[i]
		r.ForEach(func(k int) { acc.Xor(o.rows[k]) })
	}
	return out
}

// Transpose returns the transpose of m.
func (m Mat) Transpose() Mat {
	t := NewMat(m.cols, len(m.rows))
	for i, r := range m.rows {
		r.ForEach(func(j int) { t.rows[j].Set(i) })
	}
	return t
}

// Transpose64 transposes the 64×64 bit matrix a in place: bit j of a[i]
// trades places with bit i of a[j]. Six rounds of masked swaps exchange the
// off-diagonal blocks of every 2w×2w tile, for w = 32, 16, ..., 1. It is how
// the parallel simulator's lane words turn into per-vector rows and back.
func Transpose64(a *[64]uint64) {
	transposeRound(a, 32, 0x00000000ffffffff)
	transposeRound(a, 16, 0x0000ffff0000ffff)
	transposeRound(a, 8, 0x00ff00ff00ff00ff)
	transposeRound(a, 4, 0x0f0f0f0f0f0f0f0f)
	transposeRound(a, 2, 0x3333333333333333)
	transposeRound(a, 1, 0x5555555555555555)
}

// transposeRound is one round of Transpose64: for the first w rows i of
// every 2w-row band, the bits of a[i] that m<<w selects trade places with
// the bits of a[i+w] that m selects. It inlines with w and m constant; the
// &63 drops the bounds checks.
func transposeRound(a *[64]uint64, w int, m uint64) {
	for k := 0; k < 64; k += 2 * w {
		for i := k; i < k+w; i++ {
			t := (a[i&63]>>uint(w) ^ a[(i+w)&63]) & m
			a[i&63] ^= t << uint(w)
			a[(i+w)&63] ^= t
		}
	}
}

// String renders the matrix, one row per line.
func (m Mat) String() string {
	var sb strings.Builder
	for i, r := range m.rows {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(r.String())
	}
	return sb.String()
}
