package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"xhybrid/internal/correlation"
	"xhybrid/internal/gf2"
	"xhybrid/internal/xcancel"
)

// partState caches everything the partitioner derives from one distinct
// partition bitset. States are interned by partition content in the
// evaluator's VecSet, so a bitset that reappears — a candidate split
// re-scored in a later round, the X side of one candidate equal to the rest
// of another — reuses the scan results instead of recomputing them.
// Partition bitsets are immutable once interned (splitStates always builds
// fresh vectors), so a cached value never goes stale.
//
// Most states are candidate split sides that only ever need their stats;
// the column index and the memos built on it live in a partIndex that only
// committed partitions (and states the selectors group or enumerate)
// allocate.
type partState struct {
	// part is the pattern bitset, shared with the evaluator's VecSet
	// storage; read-only.
	part gf2.Vec
	// size is part.PopCount().
	size int

	// statsOnce guards maskedX/maskCells: candidate scoring fans out over
	// the pool and two in-flight candidates may share a side state.
	// statsReady lets scanPair skip sides that are already filled without
	// consuming their Once.
	statsOnce  sync.Once
	statsReady atomic.Bool
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
	// Once-guarded like the stats: groupsPerPartition fans distinct states
	// out per index, but nothing stops an external caller (or a future
	// selector) from racing two lookups of one state, so the memo defends
	// itself rather than leaning on the caller's fan-out shape.
	groupsOnce  sync.Once
	groupsReady atomic.Bool
	groups      []correlation.Group

	// cands memoizes the partition's gain-ranked greedy candidate cells
	// (deduplicated by in-partition signature, capped), once-guarded like
	// groups. Partition indexes are assembled by the caller per round, so
	// the cache stays valid as the live list shifts.
	candsOnce  sync.Once
	candsReady atomic.Bool
	cands      []int
}

// shardFor picks the stripe a content hash lives in. The top hash bits
// select, so stripe choice is independent of the low bits VecSet's bucket
// map mixes on.
func (e *evaluator) shardFor(h uint64) *stateShard {
	return &e.shards[h>>(64-stateShardBits)]
}

// stateFor interns v and returns its state. The set keeps v itself; the
// caller must not mutate it afterwards. The content hash is computed once,
// outside the lock, and reused for both the stripe choice and the set probe.
func (e *evaluator) stateFor(v gf2.Vec) *partState {
	h := v.Hash()
	sh := e.shardFor(h)
	sh.mu.Lock()
	id, existed := sh.idx.AddWithHash(h, v)
	return e.internLocked(sh, id, existed)
}

// stateAnd interns (a & b) without materializing it on a cache hit. h must
// be a.HashAnd(b) (or the matching half of a.HashPair(b)).
func (e *evaluator) stateAnd(h uint64, a, b gf2.Vec) *partState {
	sh := e.shardFor(h)
	sh.mu.Lock()
	id, existed := sh.idx.AddAndWithHash(h, a, b)
	return e.internLocked(sh, id, existed)
}

// stateAndNot interns (a &^ b) without materializing it on a cache hit.
// h must be a.HashAndNot(b).
func (e *evaluator) stateAndNot(h uint64, a, b gf2.Vec) *partState {
	sh := e.shardFor(h)
	sh.mu.Lock()
	id, existed := sh.idx.AddAndNotWithHash(h, a, b)
	return e.internLocked(sh, id, existed)
}

// internLocked finishes a state lookup. It must be entered with sh.mu held
// and releases it.
func (e *evaluator) internLocked(sh *stateShard, id int, existed bool) *partState {
	if existed {
		st := sh.states[id]
		sh.mu.Unlock()
		e.obsStateHits.Inc()
		return st
	}
	part := sh.idx.Vec(id)
	st := &partState{part: part, size: part.PopCount()}
	sh.states = append(sh.states, st)
	sh.mu.Unlock()
	e.obsStateMisses.Inc()
	return st
}

// internedStates returns every state across the stripes (unordered) — the
// consistency surface the concurrent-interning stress test audits against
// the core.state.cache.* counters.
func (e *evaluator) internedStates() []*partState {
	var out []*partState
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		out = append(out, sh.states...)
		sh.mu.Unlock()
	}
	return out
}

// commitStats records a priced state's stats — maskedX is size × cells —
// through its Once, so a racing fill keeps the first value.
func (st *partState) commitStats(cells int) {
	st.statsOnce.Do(func() {
		st.maskedX, st.maskCells = st.size*cells, cells
		st.statsReady.Store(true)
	})
}

// ensureStats prices a state that is no split side — RunCtx's root — from
// its own column index, for free: a cell is fully X exactly when its
// in-partition count equals the size, and those columns lead byCount.
func (st *partState) ensureStats(e *evaluator) {
	if st.statsReady.Load() {
		return
	}
	idx := st.ensureIndex(e, nil)
	cells := 0
	for _, cc := range idx.byCount {
		if int(cc.count) != st.size {
			break
		}
		cells += int(e.cols.mult[cc.col])
	}
	st.commitStats(cells)
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
		for i, ca := range cands {
			idx.cands[i] = cells[e.cols.firstSlot[ca.col]].Cell
		}
		idx.candsReady.Store(true)
	})
	return idx.cands
}

// splitStates interns the two sides of splitting parent on cell and fills
// their stats. Both sides' content hashes come from one fused word scan
// (gf2.Vec.HashPair), so a cache hit costs a single pass over the parent
// and cell bitsets; on a hit neither side's bitset is even materialized and
// no scan runs at all. Otherwise one bounded scan of the parent's column
// index prices whichever sides are fresh.
func (e *evaluator) splitStates(parent *partState, cell int) (xs, rs *partState) {
	cellBits, ok := e.m.CellPatterns(cell)
	if !ok {
		panic(fmt.Sprintf("core: split cell %d captures no X", cell))
	}
	hAnd, hAndNot := parent.part.HashPair(cellBits)
	xs = e.stateAnd(hAnd, parent.part, cellBits)
	rs = e.stateAndNot(hAndNot, parent.part, cellBits)
	if !xs.statsReady.Load() || !rs.statsReady.Load() {
		e.scanPair(parent.ensureIndex(e, nil).byCount, xs, rs)
	}
	return xs, rs
}

// contrib returns the partition's mask control-bit contribution: one mask
// image, whatever the mask covers (the paper charges every partition).
func (e *evaluator) contrib(st *partState) int {
	return e.params.maskImageBits()
}

// cancelBits prices the X-canceling of everything the masks leave behind.
func (e *evaluator) cancelBits(masked int) int {
	return xcancel.ControlBits(e.totalX-masked, e.params.Cancel.MISR.Size, e.params.Cancel.Q)
}
