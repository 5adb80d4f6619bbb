// Package xmap implements the sparse X-location map: for every scan cell
// that ever captures an unknown value, the set of test patterns under which
// it does. This is the only view of the output responses that the paper's
// correlation analysis, partitioning algorithm, and control-bit accounting
// need, and it stays small even for industrial designs because X-densities
// are low (fractions of a percent to a few percent).
//
// This package implements DESIGN.md §5.1: per-cell pattern bitsets plus
// per-pattern X-cell lists, with cells indexed chain-major
// (cell = chain*chainLen + position).
package xmap

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"xhybrid/internal/gf2"
	"xhybrid/internal/logic"
	"xhybrid/internal/scan"
)

// CellX records one X-capturing scan cell and the patterns under which it
// captures an X.
type CellX struct {
	// Cell is the flat chain-major cell index.
	Cell int
	// Patterns has bit p set iff the cell captures X under pattern p.
	Patterns gf2.Vec
}

// Count returns the number of patterns under which the cell captures an X.
func (c CellX) Count() int { return c.Patterns.PopCount() }

// XMap is the sparse pattern-by-cell X-location matrix.
type XMap struct {
	numPatterns int
	numCells    int
	// cells holds the X-capturing cells; ascending cell-index order is
	// restored lazily (see ensureSorted), so unsorted tracks whether an
	// out-of-order Add has happened since the last sort. unsorted is
	// atomic and the sort itself is mutex-guarded so that the first
	// concurrent readers after a build race neither the sort nor each
	// other; once sorted, every read path is lock-free again.
	cells    []CellX
	unsorted atomic.Bool
	sortMu   sync.Mutex
	// slot maps a cell index to its position in cells. It is maintained
	// eagerly and stays valid whether or not cells is currently sorted.
	slot map[int]int
}

// New returns an empty XMap for the given dimensions.
func New(numPatterns, numCells int) *XMap {
	if numPatterns < 0 || numCells < 0 {
		panic("xmap: negative dimension")
	}
	return &XMap{
		numPatterns: numPatterns,
		numCells:    numCells,
		slot:        make(map[int]int),
	}
}

// FromResponses builds an XMap from a captured response set.
func FromResponses(s *scan.ResponseSet) *XMap {
	m := New(s.Patterns(), s.Geom.Cells())
	for p, r := range s.Responses {
		for cell, v := range r.Values {
			if v == logic.X {
				m.Add(p, cell)
			}
		}
	}
	return m
}

// FromPacked builds an XMap from a packed response set: word b of a cell's
// pattern bitset is block b's X word for the cell, so the map is read 64
// patterns per word. Cells are installed in ascending order, and a cell
// with no X in any block gets no entry.
func FromPacked(s *scan.PackedResponses) *XMap {
	cells := s.Geom.Cells()
	m := New(s.Patterns(), cells)
	xs := make([][]uint64, s.Blocks())
	for b := range xs {
		_, xs[b] = s.Block(b)
	}
	for cell := 0; cell < cells; cell++ {
		var any uint64
		for _, x := range xs {
			any |= x[cell]
		}
		if any == 0 {
			continue
		}
		v := gf2.NewVec(s.Patterns())
		words := v.Words()
		for b := range words {
			words[b] = xs[b][cell]
		}
		m.SetCellPatterns(cell, v)
	}
	return m
}

// Patterns returns the number of test patterns.
func (m *XMap) Patterns() int { return m.numPatterns }

// Cells returns the total number of scan cells (X-capturing or not).
func (m *XMap) Cells() int { return m.numCells }

// Add marks cell as X under pattern p.
func (m *XMap) Add(p, cell int) { m.TryAdd(p, cell) }

// TryAdd marks cell as X under pattern p and reports whether that X is new.
// It is the build-side membership test: unlike Has it never restores the
// sorted order, so a generator that checks before every out-of-order insert
// pays one slot-map probe per X instead of a full re-sort. It panics and
// must be serialized exactly like Add.
func (m *XMap) TryAdd(p, cell int) bool {
	if p < 0 || p >= m.numPatterns {
		panic(fmt.Sprintf("xmap: pattern %d out of range [0,%d)", p, m.numPatterns))
	}
	if cell < 0 || cell >= m.numCells {
		panic(fmt.Sprintf("xmap: cell %d out of range [0,%d)", cell, m.numCells))
	}
	i, ok := m.slot[cell]
	if !ok {
		i = m.appendCell(cell)
	}
	if m.cells[i].Patterns.Get(p) {
		return false
	}
	m.cells[i].Patterns.Set(p)
	return true
}

// appendCell adds a fresh CellX entry at the end of cells. Keeping the
// slice sorted on every insert (the previous design) rebuilt the slot map
// for the whole suffix per new cell — O(n) per insert, O(n^2) to load a
// map in descending cell order, which dominated large FromResponses
// builds. Instead the entry is appended in O(1) and the ascending order
// that XCells and friends promise is restored once, on the next sorted
// read (ensureSorted). In-order builds never mark the map unsorted and
// never pay for a sort.
func (m *XMap) appendCell(cell int) int {
	i := len(m.cells)
	m.cells = append(m.cells, CellX{Cell: cell, Patterns: gf2.NewVec(m.numPatterns)})
	m.slot[cell] = i
	if i > 0 && m.cells[i-1].Cell > cell {
		m.unsorted.Store(true)
	}
	return i
}

// SetCellPatterns installs the complete pattern bitset of one cell in a
// single step, taking ownership of v (the caller must not mutate it
// afterwards). This is the bulk-load path of the binary wire decoder: one
// append per cell instead of one slot-map probe per X, and an
// ascending-cell caller (the decoder enforces ascending records) never
// marks the map unsorted, so no sort is ever paid. The cell must not
// already be present — per-X accumulation belongs to Add.
func (m *XMap) SetCellPatterns(cell int, v gf2.Vec) {
	if cell < 0 || cell >= m.numCells {
		panic(fmt.Sprintf("xmap: cell %d out of range [0,%d)", cell, m.numCells))
	}
	if v.Len() != m.numPatterns {
		panic(fmt.Sprintf("xmap: bitset width %d, want %d patterns", v.Len(), m.numPatterns))
	}
	if _, ok := m.slot[cell]; ok {
		panic(fmt.Sprintf("xmap: cell %d already present", cell))
	}
	i := len(m.cells)
	m.cells = append(m.cells, CellX{Cell: cell, Patterns: v})
	m.slot[cell] = i
	if i > 0 && m.cells[i-1].Cell > cell {
		m.unsorted.Store(true)
	}
}

// ensureSorted restores ascending cell order after out-of-order Adds. It
// mutates cells and slot, so it is double-check locked: readers that
// arrive while the map is still unsorted serialize on sortMu (the first
// one sorts, the rest see the done flag and fall through), and once the
// atomic flag is clear every read path is lock-free. Builds (Add) are
// still single-writer — only the read side is safe to fan out across
// goroutines, which is exactly how core's worker pool and the server's
// concurrent analyze handlers use a finished map.
func (m *XMap) ensureSorted() {
	if !m.unsorted.Load() {
		return
	}
	m.sortMu.Lock()
	defer m.sortMu.Unlock()
	if !m.unsorted.Load() {
		return
	}
	sort.Slice(m.cells, func(a, b int) bool { return m.cells[a].Cell < m.cells[b].Cell })
	for i, c := range m.cells {
		m.slot[c.Cell] = i
	}
	m.unsorted.Store(false)
}

// Has reports whether cell captures X under pattern p.
func (m *XMap) Has(p, cell int) bool {
	m.ensureSorted()
	i, ok := m.slot[cell]
	if !ok {
		return false
	}
	return m.cells[i].Patterns.Get(p)
}

// XCells returns the X-capturing cells in ascending cell-index order.
// The returned slice and its bitsets are shared; treat as read-only.
func (m *XMap) XCells() []CellX {
	m.ensureSorted()
	return m.cells
}

// NumXCells returns the number of cells that capture at least one X.
func (m *XMap) NumXCells() int { return len(m.cells) }

// CellPatterns returns the pattern bitset for a cell, or ok=false if the
// cell never captures an X. The bitset is shared; treat as read-only.
func (m *XMap) CellPatterns(cell int) (gf2.Vec, bool) {
	m.ensureSorted()
	i, ok := m.slot[cell]
	if !ok {
		return gf2.Vec{}, false
	}
	return m.cells[i].Patterns, true
}

// TotalX returns the total number of X values across all patterns.
func (m *XMap) TotalX() int {
	m.ensureSorted()
	n := 0
	for _, c := range m.cells {
		n += c.Patterns.PopCount()
	}
	return n
}

// PatternXCounts returns, for each pattern, the number of X's it captures.
func (m *XMap) PatternXCounts() []int {
	m.ensureSorted()
	counts := make([]int, m.numPatterns)
	for _, c := range m.cells {
		c.Patterns.ForEach(func(p int) { counts[p]++ })
	}
	return counts
}

// PatternCells returns the X-capturing cell indices of pattern p, ascending.
func (m *XMap) PatternCells(p int) []int {
	m.ensureSorted()
	var out []int
	for _, c := range m.cells {
		if c.Patterns.Get(p) {
			out = append(out, c.Cell)
		}
	}
	return out
}

// Density returns the fraction of all response bits that are X.
func (m *XMap) Density() float64 {
	total := m.numPatterns * m.numCells
	if total == 0 {
		return 0
	}
	return float64(m.TotalX()) / float64(total)
}

// CountIn returns the number of patterns in the partition bitset under which
// cell captures an X. Returns 0 for cells that never capture X.
func (m *XMap) CountIn(cell int, partition gf2.Vec) int {
	m.ensureSorted()
	i, ok := m.slot[cell]
	if !ok {
		return 0
	}
	return m.cells[i].Patterns.PopCountAnd(partition)
}

// Equal reports whether two maps have identical dimensions and X locations.
func (m *XMap) Equal(o *XMap) bool {
	if m.numPatterns != o.numPatterns || m.numCells != o.numCells || len(m.cells) != len(o.cells) {
		return false
	}
	m.ensureSorted()
	o.ensureSorted()
	for i, c := range m.cells {
		if c.Cell != o.cells[i].Cell || !c.Patterns.Equal(o.cells[i].Patterns) {
			return false
		}
	}
	return true
}
