package core

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"xhybrid/internal/correlation"
	"xhybrid/internal/gf2"
	"xhybrid/internal/xcancel"
)

// partState is one partition the partitioner has built: the root, a
// committed split side, or a side RunCtx prices for the round's chosen
// split. Its stats are set where it is built and never change; the column
// index and the memos built on it live in a partIndex that only the root
// and committed partitions allocate.
type partState struct {
	// part is the pattern bitset; read-only.
	part gf2.Vec
	// size is part.PopCount().
	size int

	// maskedX is the number of X's the partition's shared mask removes.
	maskedX int
	// maskCells is the number of cells that mask covers.
	maskCells int

	// idx is the partition's column index, built once through idxOnce;
	// nil until then, so a non-nil load is the acquire-ordered ready flag.
	idxOnce sync.Once
	idx     atomic.Pointer[partIndex]
}

// partIndex is a partition's column index plus the memos computed from it.
type partIndex struct {
	colIndex

	// groups memoizes the partition's equal-count candidate groups.
	// Once-guarded: groupsPerPartition fans distinct states out per index,
	// but nothing stops an external caller (or a future selector) from
	// racing two lookups of one state, so the memo defends itself rather
	// than leaning on the caller's fan-out shape.
	groupsOnce  sync.Once
	groupsReady atomic.Bool
	groups      []correlation.Group

	// cands memoizes the partition's gain-ranked greedy candidate cells
	// (deduplicated by in-partition signature, capped) and candCols each
	// one's column, once-guarded like groups. Partition indexes are
	// assembled by the caller per round, so the cache stays valid as the
	// live list shifts.
	candsOnce  sync.Once
	candsReady atomic.Bool
	cands      []int
	candCols   []int32

	// gains memoizes, per entry of cands and in the same order, the masked
	// X's the split on that cell gains: the two sides' maskedX minus the
	// partition's. A split's cost depends on the rest of the plan only
	// through running totals, so the gain prices it in every round. nil
	// until selectGreedy publishes a completed pricing; only its serial
	// code reads or writes the field.
	gains []int
}

// indexedState builds the state of a partition with no parent — RunCtx's
// root — indexing it over every column and pricing it from that index for
// free: a cell is fully X exactly when its in-partition count equals the
// size, and those columns lead byCount.
func (e *evaluator) indexedState(part gf2.Vec) *partState {
	st := &partState{part: part, size: part.PopCount()}
	cells := 0
	for _, cc := range st.ensureIndex(e, nil).byCount {
		if int(cc.count) != st.size {
			break
		}
		cells += int(e.cols.mult[cc.col])
	}
	st.maskedX, st.maskCells = st.size*cells, cells
	return st
}

// ensureIndex returns the partition's column index, building it on first
// use by narrowing its parent's (a sub-partition only holds X's on columns
// its parent does) or, with no indexed parent, the all-columns list. Safe
// for concurrent callers: the first one in builds (any source yields the
// identical index, a parent only shrinks the work), later ones block on the
// Once until it is ready.
func (st *partState) ensureIndex(e *evaluator, parent *partState) *partIndex {
	if idx := st.idx.Load(); idx != nil {
		return idx
	}
	st.idxOnce.Do(func() {
		src := &e.all
		if parent != nil {
			if pidx := parent.idx.Load(); pidx != nil {
				src = &pidx.colIndex
			}
		}
		e.obsIndexBuilds.Inc()
		e.obsIndexCells.Add(int64(src.cells))
		st.idx.Store(&partIndex{colIndex: e.cols.narrow(src.byCol, st.part)})
	})
	return st.idx.Load()
}

// ensureGroups memoizes the partition's equal-count groups, handing
// correlation the slots of its indexed columns. Concurrent lookups of one
// state are safe: the memo fills through the Once, and a caller that raced
// the fill returns the finished slice without counting a hit or a miss (the
// hit/miss counters track fast-path lookups and distinct computations;
// misses always equal the number of states that ever computed groups).
func (st *partState) ensureGroups(e *evaluator) []correlation.Group {
	idx := st.ensureIndex(e, nil)
	if idx.groupsReady.Load() {
		e.obsGroupHits.Inc()
		return idx.groups
	}
	idx.groupsOnce.Do(func() {
		e.obsGroupMisses.Inc()
		idx.groups = correlation.GroupsWithinCells(e.ctx, e.m, st.part, e.cols.slots(&idx.colIndex), e.pool, e.params.Obs)
		idx.groupsReady.Store(true)
	})
	return idx.groups
}

// ensureCands memoizes the partition's greedy candidate cells: one
// representative cell per distinct in-partition X signature, ranked by gain
// — the total in-partition X's of the cells sharing the signature, a lower
// bound on what the split's X side masks — and capped at limit. The walk is
// over columns in column order: cells sharing a column share a signature
// and add count × multiplicity, and first-slot numbering makes each
// signature's representative its first cell in slot order, so the sequence
// handed to sort.Slice (deterministic on an identical input) is exactly a
// slot-order enumeration's. It returns nil when the run is canceled
// mid-enumeration (the memo stays unfilled; the run is aborting anyway).
func (st *partState) ensureCands(e *evaluator, limit int) []int {
	idx := st.ensureIndex(e, nil)
	if idx.candsReady.Load() {
		return idx.cands
	}
	idx.candsOnce.Do(func() {
		cells := e.m.XCells()
		type cand struct {
			col  int32 // the signature's first column
			next int32 // previous candidate with the same signature hash, or -1
			gain int
		}
		// Signatures dedup by content hash (HashAnd), verified by comparing
		// the two columns inside the partition, so none is materialized.
		heads := make(map[uint64]int32, len(idx.byCol))
		pw := st.part.Words()
		var cands []cand
	cols:
		for k, cc := range idx.byCol {
			if k&cancelCheckMask == 0 && e.canceled() {
				return
			}
			n := int(cc.count)
			if n >= st.size {
				// Fully-X columns can't split; the index guarantees n > 0.
				continue
			}
			gain := n * int(e.cols.mult[cc.col])
			h := cells[e.cols.firstSlot[cc.col]].Patterns.HashAnd(st.part)
			head, ok := heads[h]
			if !ok {
				head = -1
			}
			for j := head; j >= 0; j = cands[j].next {
				if equalIn(e.cols.col(cands[j].col), e.cols.col(cc.col), pw) {
					cands[j].gain += gain
					continue cols
				}
			}
			heads[h] = int32(len(cands))
			cands = append(cands, cand{col: cc.col, next: head, gain: gain})
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].gain > cands[b].gain })
		if len(cands) > limit {
			cands = cands[:limit]
		}
		idx.cands = make([]int, len(cands))
		idx.candCols = make([]int32, len(cands))
		for i, ca := range cands {
			idx.cands[i] = cells[e.cols.firstSlot[ca.col]].Cell
			idx.candCols[i] = ca.col
		}
		idx.candsReady.Store(true)
	})
	return idx.cands
}

// splitStates builds the two sides of splitting parent on cell and prices
// them with one bounded scan of the parent's column index. It is RunCtx's
// pricing of the round's chosen split; the sides are fresh vectors, and
// only a committed pair ever gets a column index.
func (e *evaluator) splitStates(parent *partState, cell int) (xs, rs *partState) {
	cellBits, ok := e.m.CellPatterns(cell)
	if !ok {
		panic(fmt.Sprintf("core: split cell %d captures no X", cell))
	}
	x, r := gf2.AndOf(parent.part, cellBits), gf2.AndNotOf(parent.part, cellBits)
	xn := x.PopCount()
	rn := parent.size - xn
	cx, cr := e.scanSides(parent.ensureIndex(e, nil).byCount, x.Words(), xn, r.Words(), rn)
	xs = &partState{part: x, size: xn, maskedX: xn * cx, maskCells: cx}
	rs = &partState{part: r, size: rn, maskedX: rn * cr, maskCells: cr}
	return xs, rs
}

// splitGain returns the masked-X gain of splitting the indexed partition
// st on column col: the two sides' maskedX minus st's. It builds the sides
// in the scratch words xw and rw (one partition's worth each) and prices
// them with the same bounded scan as splitStates.
func (e *evaluator) splitGain(st *partState, col int32, xw, rw []uint64) int {
	cw := e.cols.col(col)
	xn := 0
	for i, w := range st.part.Words() {
		xw[i], rw[i] = w&cw[i], w&^cw[i]
		xn += bits.OnesCount64(xw[i])
	}
	rn := st.size - xn
	cx, cr := e.scanSides(st.idx.Load().byCount, xw, xn, rw, rn)
	return xn*cx + rn*cr - st.maskedX
}

// cancelBits prices the X-canceling of everything the masks leave behind.
func (e *evaluator) cancelBits(masked int) int {
	return xcancel.ControlBits(e.totalX-masked, e.params.Cancel.MISR.Size, e.params.Cancel.Q)
}
