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
// evaluator's VecSet, so a bitset that reappears — a rejected split retried
// in a later round, the X side of one candidate equal to the rest of
// another, a cluster merge re-evaluated across hill-climb rounds — reuses
// the scan results instead of recomputing them. Partition bitsets are
// immutable once interned (splitStates and the cluster merges always build
// fresh vectors), so a cached value never goes stale.
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

	// cells are the slots into the X-map's XCells() whose cells capture at
	// least one in-partition X — the only cells any scan of this partition
	// can care about — and counts holds each one's in-partition X count.
	// Only committed partitions carry the index (candidate sides inherit
	// their parent's as a scan hint instead). Like the stats, the build is
	// once-guarded so concurrent callers are safe: the first builds, the
	// rest block on the Once; cellsReady is the acquire-ordered flag that
	// lets readers skip the Once entirely (and distinguishes a legitimately
	// empty index from an unbuilt one).
	cellsOnce  sync.Once
	cellsReady atomic.Bool
	cells      []int32
	counts     []int32

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

// ensureStats computes the partition's maskedX and maskCells in a single
// pass over the cells that can matter. A partition carrying its own cell
// index gets the stats for free — a cell is fully X exactly when its stored
// in-partition count equals the partition size, no bitset is touched.
// Otherwise one popcount scan runs over hint (any superset of the
// intersecting slots, typically the parent partition's index) or, failing
// that, every X-capturing cell; the scan chunks over the pool with a
// position-indexed reduction, so the result is identical for any worker
// count. A canceled run leaves partial values; the caller aborts with the
// context error before they can escape.
func (st *partState) ensureStats(e *evaluator, hint []int32) {
	st.statsOnce.Do(func() {
		defer st.statsReady.Store(true)
		if st.size == 0 {
			return
		}
		if st.cellsReady.Load() {
			for _, n := range st.counts {
				if int(n) == st.size {
					st.maskedX += st.size
					st.maskCells++
				}
			}
			return
		}
		e.obsRecomputes.Inc()
		cells := e.m.XCells()
		n := len(cells)
		if hint != nil {
			n = len(hint)
		}
		type partial struct{ maskedX, maskCells int }
		partials := make([]partial, e.pool.Workers())
		e.pool.Chunks(n, func(c, lo, hi int) {
			var p partial
			for i := lo; i < hi; i++ {
				if i&cancelCheckMask == 0 && e.canceled() {
					break
				}
				slot := i
				if hint != nil {
					slot = int(hint[i])
				}
				if cells[slot].Patterns.PopCountAnd(st.part) == st.size {
					p.maskedX += st.size
					p.maskCells++
				}
			}
			partials[c] = p
		})
		for _, p := range partials {
			st.maskedX += p.maskedX
			st.maskCells += p.maskCells
		}
	})
}

// ensureCells builds the partition-local slot index with per-cell counts,
// narrowing the parent's when available (a sub-partition can only intersect
// cells its parent does). Safe for concurrent callers: the first one in
// builds (its parent hint wins; any hint yields the identical index, a hint
// only shrinks the scan), later ones block on the Once until the index is
// ready.
func (st *partState) ensureCells(e *evaluator, parent *partState) {
	if st.cellsReady.Load() {
		return
	}
	st.cellsOnce.Do(func() {
		var within []int32
		if parent != nil && parent.cellsReady.Load() {
			within = parent.cells
		}
		n := len(within)
		if within == nil {
			n = e.m.NumXCells()
		}
		e.obsIndexBuilds.Inc()
		e.obsIndexCells.Add(int64(n))
		st.cells, st.counts = e.m.IntersectingSlotCounts(st.part, within)
		st.cellsReady.Store(true)
	})
}

// ensureGroups memoizes the partition's equal-count groups, scanning only
// its local slot index. Concurrent lookups of one state are safe: the memo
// fills through the Once, and a caller that raced the fill returns the
// finished slice without counting a hit or a miss (the hit/miss counters
// track fast-path lookups and distinct computations; misses always equal
// the number of states that ever computed groups).
func (st *partState) ensureGroups(e *evaluator) []correlation.Group {
	if st.groupsReady.Load() {
		e.obsGroupHits.Inc()
		return st.groups
	}
	st.groupsOnce.Do(func() {
		e.obsGroupMisses.Inc()
		st.ensureCells(e, nil)
		st.groups = correlation.GroupsWithinCells(e.ctx, e.m, st.part, st.cells, e.pool, e.params.Obs)
		st.groupsReady.Store(true)
	})
	return st.groups
}

// ensureCands memoizes the partition's greedy candidate cells: one
// representative cell per distinct in-partition X signature (first in slot
// order, exactly the old full-scan enumeration restricted to cells that can
// intersect), ranked by gain — the total in-partition X's of the cells
// sharing the signature, a lower bound on what the split's X side masks —
// and capped at limit. sort.Slice on an identical input sequence is
// deterministic, so the ranking matches the pre-incremental engine's.
func (st *partState) ensureCands(e *evaluator, limit int) {
	if st.candsReady.Load() {
		return
	}
	st.candsOnce.Do(func() {
		st.ensureCells(e, nil)
		cells := e.m.XCells()
		type cand struct {
			cell int
			gain int
		}
		sigs := gf2.NewVecSet()
		var cands []cand
		for k, slot := range st.cells {
			if k&cancelCheckMask == 0 && e.canceled() {
				// Leave the memo unfilled (candsReady stays false, so the
				// selector skips this state); the run is aborting anyway.
				return
			}
			c := cells[slot]
			n := int(st.counts[k])
			if n >= st.size {
				// Fully-X cells can't split; the index guarantees n > 0.
				continue
			}
			id, existed := sigs.AddAnd(c.Patterns, st.part)
			if existed {
				cands[id].gain += n
				continue
			}
			cands = append(cands, cand{cell: c.Cell, gain: n})
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].gain > cands[b].gain })
		if len(cands) > limit {
			cands = cands[:limit]
		}
		st.cands = make([]int, len(cands))
		for i, ca := range cands {
			st.cands[i] = ca.cell
		}
		st.candsReady.Store(true)
	})
}

// splitStates interns the two sides of splitting parent on cell and fills
// their stats. Both sides' content hashes come from one fused word scan
// (gf2.Vec.HashPair), so a cache hit costs a single pass over the parent
// and cell bitsets where two probes used to scan twice. When both sides
// are fresh, one pair scan over the parent's cell index prices them
// together; on a cache hit neither side's bitset is even materialized and
// no scan runs at all.
func (e *evaluator) splitStates(parent *partState, cell int) (xs, rs *partState) {
	cellBits, ok := e.m.CellPatterns(cell)
	if !ok {
		panic(fmt.Sprintf("core: split cell %d captures no X", cell))
	}
	hAnd, hAndNot := parent.part.HashPair(cellBits)
	xs = e.stateAnd(hAnd, parent.part, cellBits)
	rs = e.stateAndNot(hAndNot, parent.part, cellBits)
	if parent.cellsReady.Load() && xs.size > 0 && rs.size > 0 &&
		!xs.statsReady.Load() && !rs.statsReady.Load() {
		e.scanPair(parent, xs, rs)
	}
	var hint []int32
	if parent.cellsReady.Load() {
		hint = parent.cells
	}
	xs.ensureStats(e, hint)
	rs.ensureStats(e, hint)
	return xs, rs
}

// scanPair fills both split sides' stats from a single pass over the
// parent's cell index, spending one popcount per cell: the X side's
// in-partition count is measured directly and the rest side's falls out as
// the parent's stored count minus it. The fallback path would run two
// scans, each of them over a superset of these cells with the same popcount
// per cell — the pair scan is strictly cheaper and counts as one recompute.
// Results are committed through each side's Once, so racing fills (another
// candidate sharing a side) keep the first value; both computations produce
// identical integers, so the race never changes an outcome.
func (e *evaluator) scanPair(parent, xs, rs *partState) {
	e.obsRecomputes.Inc()
	cells := e.m.XCells()
	n := len(parent.cells)
	type partial struct{ mxX, mcX, mxR, mcR int }
	partials := make([]partial, e.pool.Workers())
	e.pool.Chunks(n, func(c, lo, hi int) {
		var p partial
		for i := lo; i < hi; i++ {
			if i&cancelCheckMask == 0 && e.canceled() {
				break
			}
			nXs := cells[parent.cells[i]].Patterns.PopCountAnd(xs.part)
			if nXs == xs.size {
				p.mxX += xs.size
				p.mcX++
			}
			if int(parent.counts[i])-nXs == rs.size {
				p.mxR += rs.size
				p.mcR++
			}
		}
		partials[c] = p
	})
	var total partial
	for _, p := range partials {
		total.mxX += p.mxX
		total.mcX += p.mcX
		total.mxR += p.mxR
		total.mcR += p.mcR
	}
	xs.statsOnce.Do(func() {
		xs.maskedX, xs.maskCells = total.mxX, total.mcX
		xs.statsReady.Store(true)
	})
	rs.statsOnce.Do(func() {
		rs.maskedX, rs.maskCells = total.mxR, total.mcR
		rs.statsReady.Store(true)
	})
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

// costOf sums the full cost of a partition list from its cached stats:
// cost = sum of mask contributions + cancel bits of the residual. The
// running-total bookkeeping in RunCtx and the delta scoring are exact
// integer rearrangements of this sum.
func (e *evaluator) costOf(states []*partState) int {
	e.obsFull.Inc()
	masked, maskBits := 0, 0
	for _, st := range states {
		masked += st.maskedX
		maskBits += e.contrib(st)
	}
	return maskBits + e.cancelBits(masked)
}
