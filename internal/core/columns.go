package core

import (
	"math"
	"math/bits"

	"xhybrid/internal/gf2"
	"xhybrid/internal/xmap"
)

// colTable is the run's column table: the distinct pattern vectors of the
// X-map's cells. Section 3's inter-correlation makes many cells share one
// pattern set (a CKT-B/4 map has 1,387 X cells but 468 distinct columns),
// and every question the partitioner asks of a cell — its X count inside a
// partition, whether a split side is fully X on it — has one answer for all
// the cells sharing its column. Columns are numbered in first-slot order
// (a slot is a position in XMap.XCells), so a walk in column order meets
// each distinct pattern set where a slot-order walk of the cells first did.
type colTable struct {
	// w is the words per column, ⌈patterns/64⌉.
	w int
	// slab holds column c's pattern words at [c·w, (c+1)·w).
	slab []uint64
	// mult[c] is the number of cells sharing column c.
	mult []int32
	// firstSlot[c] is the lowest slot whose cell has column c.
	firstSlot []int32
	// colOf maps each slot to its column.
	colOf []int32
}

// newColTable deduplicates the X cells' pattern vectors by content hash
// plus word equality (gf2.VecSet, whose dense ids are exactly first-slot
// order) into one contiguous slab.
func newColTable(m *xmap.XMap) colTable {
	cells := m.XCells()
	t := colTable{w: (m.Patterns() + 63) / 64, colOf: make([]int32, len(cells))}
	set := gf2.NewVecSet()
	for s, c := range cells {
		id, existed := set.Add(c.Patterns)
		if !existed {
			t.mult = append(t.mult, 0)
			t.firstSlot = append(t.firstSlot, int32(s))
		}
		t.mult[id]++
		t.colOf[s] = int32(id)
	}
	t.slab = make([]uint64, set.Len()*t.w)
	for c := 0; c < set.Len(); c++ {
		copy(t.slab[c*t.w:], set.Vec(c).Words())
	}
	return t
}

// col returns column c's pattern words (read-only).
func (t *colTable) col(c int32) []uint64 {
	lo := int(c) * t.w
	return t.slab[lo : lo+t.w : lo+t.w]
}

// colCount is one column-index entry: a column and its X count inside the
// indexed partition.
type colCount struct{ col, count int32 }

// colIndex lists the columns holding at least one X inside a partition,
// with their in-partition counts, in two orders: byCol in column order
// (what child narrowing and the greedy candidate enumeration walk) and
// byCount by descending count, ties in column order (what the bounded scan
// walks). cells is the number of X cells those columns stand for.
type colIndex struct {
	byCol   []colCount
	byCount []colCount
	cells   int
}

// narrow builds the index of part from src, the byCol list of any
// partition containing part: a column can only hold an X inside part if it
// holds one inside the superset, so one popcount per src column replaces
// one per cell.
func (t *colTable) narrow(src []colCount, part gf2.Vec) colIndex {
	pw := part.Words()
	byCol := make([]colCount, 0, len(src))
	maxCount, cells := 0, 0
	for _, cc := range src {
		col := t.col(cc.col)
		n := 0
		for i, w := range pw {
			n += bits.OnesCount64(w & col[i])
		}
		if n > 0 {
			byCol = append(byCol, colCount{cc.col, int32(n)})
			maxCount = max(maxCount, n)
			cells += int(t.mult[cc.col])
		}
	}
	// Counting sort by descending count: counts are at most the
	// partition's size, and the stable placement keeps column order within
	// a count.
	pos := make([]int, maxCount+1)
	for _, cc := range byCol {
		pos[maxCount-int(cc.count)]++
	}
	for k, sum := 0, 0; k < len(pos); k++ {
		pos[k], sum = sum, sum+pos[k]
	}
	byCount := make([]colCount, len(byCol))
	for _, cc := range byCol {
		k := maxCount - int(cc.count)
		byCount[pos[k]] = cc
		pos[k]++
	}
	return colIndex{byCol: byCol, byCount: byCount, cells: cells}
}

// allColumns lists every column, the source a partition with no indexed
// parent narrows from. narrow reads only the columns of its source, so the
// entries carry no counts and no popcount pass runs here: the root's own
// narrow is the one that counts. Every column holds at least one X, so the
// list stands for every X cell.
func (t *colTable) allColumns() colIndex {
	byCol := make([]colCount, len(t.mult))
	for c := range byCol {
		byCol[c].col = int32(c)
	}
	return colIndex{byCol: byCol, cells: len(t.colOf)}
}

// slots lists, ascending, the slots whose cells hold an X inside the
// partition idx indexes: every slot of every indexed column, read off colOf
// with no popcount.
func (t *colTable) slots(idx *colIndex) []int32 {
	in := make([]bool, len(t.mult))
	for _, cc := range idx.byCol {
		in[cc.col] = true
	}
	out := make([]int32, 0, idx.cells)
	for s, c := range t.colOf {
		if in[c] {
			out = append(out, int32(s))
		}
	}
	return out
}

// equalIn reports whether columns a and b agree on every pattern of part.
func equalIn(a, b, part []uint64) bool {
	a, b = a[:len(part)], b[:len(part)]
	for i, w := range part {
		if (a[i]^b[i])&w != 0 {
			return false
		}
	}
	return true
}

// subset reports whether every bit of s is set in col, stopping at the
// first word that proves otherwise.
func subset(s, col []uint64) bool {
	col = col[:len(s)]
	for i, w := range s {
		if w&^col[i] != 0 {
			return false
		}
	}
	return true
}

// scanSides returns how many cells are fully X on each of two subsets a
// and b of the partition whose byCount list is given, each side given as
// its words and size. A non-empty side S is fully X on a cell exactly when
// S ⊆ the cell's pattern set, which needs the cell's in-partition count to
// reach |S|. byCount runs by descending count, so the walk stops at the
// first count below the smaller non-empty side; each side whose size the
// count reaches gets an early-exit word subset test against the run slab
// (S lies inside the partition, so the unrestricted column suffices), and a
// passing column adds every cell sharing it. An empty side masks nothing.
// The loop is serial: candidate fan-out is the parallel unit. A canceled
// run returns partial counts; the caller aborts with the context error
// before they can escape.
func (e *evaluator) scanSides(byCount []colCount, aw []uint64, sizeA int, bw []uint64, sizeB int) (cellsA, cellsB int) {
	e.obsRecomputes.Inc()
	// No column count reaches an empty side's stand-in size.
	if sizeA == 0 {
		sizeA = math.MaxInt
	}
	if sizeB == 0 {
		sizeB = math.MaxInt
	}
	bound := min(sizeA, sizeB)
	slab, w, mult := e.cols.slab, e.cols.w, e.cols.mult
	tested := 0
	for i, cc := range byCount {
		if i&cancelCheckMask == 0 && e.canceled() {
			break
		}
		n := int(cc.count)
		if n < bound {
			break
		}
		tested++
		lo := int(cc.col) * w
		col := slab[lo : lo+w : lo+w]
		if n >= sizeA && subset(aw, col) {
			cellsA += int(mult[cc.col])
		}
		if n >= sizeB && subset(bw, col) {
			cellsB += int(mult[cc.col])
		}
	}
	e.obsScanCols.Add(int64(tested))
	return cellsA, cellsB
}
