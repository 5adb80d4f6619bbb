package core

import (
	"context"
	"fmt"
	"math/rand"

	"xhybrid/internal/correlation"
	"xhybrid/internal/gf2"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
	"xhybrid/internal/xmask"
)

// Run executes the partitioning algorithm on the X-map of a pattern set and
// returns the full hybrid accounting. The X-map dimensions must match the
// geometry (Cells) — patterns are taken from the map. It is RunCtx with a
// background context (the run cannot be canceled).
func Run(m *xmap.XMap, params Params) (*Result, error) {
	return RunCtx(context.Background(), m, params)
}

// RunCtx is Run under a context: when ctx is canceled or its deadline
// passes, the partitioner stops mid-round — the split-scoring loops, the
// per-cell correlation counting and the masked-X recomputation all poll the
// context — and returns an error matching errors.Is(err, ctx.Err()). The
// evaluator's worker pool is released before returning, so a canceled run
// leaks no goroutines.
//
// The engine is incremental: cost is a sum of per-partition contributions
// plus one residual-canceling term, so a candidate split is priced by
// swapping three contributions in and out of running totals instead of
// re-walking every partition; per-partition scans cover only the cells a
// partition-local index says can matter; and every derived quantity (stats,
// candidate groups, greedy candidate lists) is memoized on the partition's
// content, surviving across rounds. All of it is exact integer
// rearrangement of the full cost sum, so plans are byte-identical to a
// from-scratch evaluation — and byte-identical for any worker count, since
// every parallel reduction stays position-indexed.
func RunCtx(ctx context.Context, m *xmap.XMap, params Params) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if m.Cells() != params.Geom.Cells() {
		return nil, fmt.Errorf("%w: X-map has %d cells, geometry has %d", ErrGeometryMismatch, m.Cells(), params.Geom.Cells())
	}
	if m.Patterns() == 0 {
		return nil, ErrEmptyPatterns
	}
	defer params.Obs.Span("core.run")()
	e := newEvaluator(ctx, m, params)
	defer e.close()
	rng := rand.New(rand.NewSource(params.Seed))

	// Start with a single partition holding every pattern. Its column
	// index is every column; all later indexes narrow an ancestor's.
	all := gf2.NewVec(m.Patterns())
	all.SetAll()
	root := e.stateFor(all)
	root.ensureStats(e)
	live := []*partState{root}
	masked := root.maskedX
	maskBits := e.contrib(root)
	cost := maskBits + e.cancelBits(masked)
	e.obsFull.Inc()

	var rounds []Round
	strat := params.strategy()
	sel := &Selection{e: e, rng: rng}
	for {
		if err := e.err(); err != nil {
			return nil, err
		}
		sel.set(live, masked, maskBits, cost)
		cand, ok := strat.Select(sel)
		if !ok {
			break
		}
		// A selector cut short by the context may return a split it never
		// finished scoring; stop before pricing it.
		if err := e.err(); err != nil {
			return nil, err
		}
		// The built-in strategies only emit valid splits; this guards the
		// engine against a Strategy implemented elsewhere (the tests plug
		// in their own).
		if cand.Partition < 0 || cand.Partition >= len(live) {
			return nil, fmt.Errorf("core: strategy %s selected partition %d of %d", strat.Name(), cand.Partition, len(live))
		}
		if _, ok := e.m.CellPatterns(cand.Cell); !ok {
			return nil, fmt.Errorf("core: strategy %s selected cell %d, which captures no X", strat.Name(), cand.Cell)
		}
		if params.MaxRounds > 0 && len(rounds) >= params.MaxRounds {
			break
		}
		e.obsRounds.Inc()
		e.obsScored.Inc()
		// Delta pricing: the split replaces the parent's contribution with
		// its two sides'. The greedy selector already interned the winning
		// candidate's sides, so this re-pricing is pure cache hits there.
		parent := live[cand.Partition]
		xs, rs := e.splitStates(parent, cand.Cell)
		e.obsDelta.Inc()
		newMasked := masked - parent.maskedX + xs.maskedX + rs.maskedX
		newMaskBits := maskBits - e.contrib(parent) + e.contrib(xs) + e.contrib(rs)
		newCost := newMaskBits + e.cancelBits(newMasked)
		r := Round{
			Round:          len(rounds) + 1,
			SplitPartition: cand.Partition,
			SplitCell:      cand.Cell,
			GroupSize:      cand.GroupSize,
			GroupCount:     cand.GroupCount,
			CostBefore:     cost,
			CostAfter:      newCost,
			Accepted:       newCost < cost,
		}
		rounds = append(rounds, r)
		if !r.Accepted {
			break
		}
		e.obsAccepted.Inc()
		// Commit: the X side replaces the parent in place and the
		// complement lands right after it. Build the sides' column indexes
		// now (serial point) by narrowing the parent's.
		xs.ensureIndex(e, parent)
		rs.ensureIndex(e, parent)
		live = append(live, nil)
		copy(live[cand.Partition+2:], live[cand.Partition+1:])
		live[cand.Partition] = xs
		live[cand.Partition+1] = rs
		masked, maskBits, cost = newMasked, newMaskBits, newCost
	}
	// The selectors short-circuit once the context dies; a break out of the
	// loop may therefore reflect an aborted scan rather than convergence.
	if err := e.err(); err != nil {
		return nil, err
	}

	return e.finalize(live, rounds), nil
}

// groupsPerPartition returns each live partition's candidate groups, fanning
// the partitions out over the pool. After the first round this is almost
// entirely cache hits: only the two partitions born from the last commit
// compute anything, and those count just the cells of their indexed
// columns. The result is indexed by partition, so the fan-out order cannot
// leak into the selection.
func (e *evaluator) groupsPerPartition(live []*partState) [][]correlation.Group {
	groups := make([][]correlation.Group, len(live))
	e.pool.ForEach(len(live), func(i int) {
		if e.canceled() || live[i].size < 2 {
			return
		}
		groups[i] = live[i].ensureGroups(e)
	})
	return groups
}

// selectPaper implements Algorithm 1's choice: the largest in-partition
// equal-count group with at least two member cells, splitting on its first
// (or a random) member. Ties prefer higher X counts, then earlier
// partitions. The per-partition group analysis runs in parallel; the
// cross-partition reduce below walks the partitions in index order, so the
// choice (and the single rng draw for the random variant) is identical to a
// serial scan.
func (e *evaluator) selectPaper(live []*partState, random bool, rng *rand.Rand) (Split, bool) {
	var best Split
	var bestGroup correlation.Group
	for i, groups := range e.groupsPerPartition(live) {
		size := live[i].size
		for _, g := range groups {
			if g.Count >= size || g.Size() < 2 {
				// Fully-X cells can't split; singleton groups are not a
				// "largest number of scan cells having the same number of
				// X's" in the paper's sense.
				continue
			}
			better := false
			switch {
			case best.GroupSize == 0:
				better = true
			case g.Size() != best.GroupSize:
				better = g.Size() > best.GroupSize
			case g.Count != best.GroupCount:
				better = g.Count > best.GroupCount
			}
			if better {
				best = Split{Partition: i, GroupSize: g.Size(), GroupCount: g.Count}
				bestGroup = g
			}
		}
	}
	if best.GroupSize == 0 {
		return Split{}, false
	}
	if random {
		best.Cell = bestGroup.Cells[rng.Intn(len(bestGroup.Cells))]
	} else {
		best.Cell = bestGroup.Cells[0]
	}
	return best, true
}

// greedyCandidateCap bounds the distinct splits selectGreedy evaluates per
// partition and round (largest gain first).
const greedyCandidateCap = 256

// selectGreedy evaluates the cost delta of every distinct candidate split
// and returns the best strictly improving one, or false. Phase 1 assembles
// each partition's deduplicated, gain-ranked candidate cells — memoized on
// the partition, so only freshly split partitions enumerate anything.
// Phase 2 prices every candidate by contribution swap against the running
// totals; side states are interned by content, so a candidate unchanged
// since the last round costs two hash probes instead of a bounded scan.
// The reduce takes the lowest cost at the earliest position in the serial
// enumeration order (partition index, then gain rank), so the pick matches
// a serial scan exactly.
func (e *evaluator) selectGreedy(live []*partState, masked, maskBits, cost int) (Split, bool) {
	cands := make([][]int, len(live))
	e.pool.ForEach(len(live), func(i int) {
		if e.canceled() || live[i].size < 2 {
			return
		}
		cands[i] = live[i].ensureCands(e, greedyCandidateCap)
	})
	n := 0
	for _, list := range cands {
		n += len(list)
	}
	all := make([]Split, 0, n)
	for i, list := range cands {
		for _, cell := range list {
			all = append(all, Split{Partition: i, Cell: cell})
		}
	}
	if len(all) == 0 {
		return Split{}, false
	}
	// Score every candidate concurrently, then reduce by (cost, position).
	e.obsScored.Add(int64(len(all)))
	costs := make([]int, len(all))
	e.pool.ForEach(len(all), func(k int) {
		if e.canceled() {
			return
		}
		parent := live[all[k].Partition]
		xs, rs := e.splitStates(parent, all[k].Cell)
		e.obsDelta.Inc()
		costs[k] = maskBits - e.contrib(parent) + e.contrib(xs) + e.contrib(rs) +
			e.cancelBits(masked-parent.maskedX+xs.maskedX+rs.maskedX)
	})
	bestIdx := 0
	for k := 1; k < len(all); k++ {
		if costs[k] < costs[bestIdx] {
			bestIdx = k
		}
	}
	if costs[bestIdx] >= cost {
		return Split{}, false
	}
	return all[bestIdx], true
}

// finalize materializes the masks and the full accounting.
func (e *evaluator) finalize(live []*partState, rounds []Round) *Result {
	res := &Result{Rounds: rounds, TotalX: e.totalX}
	maskBits := 0
	for _, st := range live {
		mask, mx := xmask.PartitionMask(e.m, st.part)
		res.Partitions = append(res.Partitions, Partition{Patterns: st.part, Mask: mask, MaskedX: mx})
		res.MaskedX += mx
		maskBits += e.params.maskImageBits()
	}
	res.ResidualX = res.TotalX - res.MaskedX
	res.MaskBits = maskBits
	res.CancelBits = xcancel.ControlBits(res.ResidualX, e.params.Cancel.MISR.Size, e.params.Cancel.Q)
	res.TotalBits = res.MaskBits + res.CancelBits
	e.params.Obs.Set("core.partitions", int64(len(res.Partitions)))
	e.params.Obs.Set("core.maskedx", int64(res.MaskedX))
	e.params.Obs.Set("xcancel.halts.planned",
		int64(xcancel.Halts(res.ResidualX, e.params.Cancel.MISR.Size, e.params.Cancel.Q)))
	return res
}

// ResidualMap returns a copy of the X-map with every masked X removed: the
// X stream that actually reaches the X-canceling MISR under the plan.
func ResidualMap(m *xmap.XMap, partitions []Partition) *xmap.XMap {
	out := xmap.New(m.Patterns(), m.Cells())
	for _, c := range m.XCells() {
		c.Patterns.ForEach(func(p int) {
			for _, part := range partitions {
				if part.Patterns.Get(p) && part.Mask.Masks(c.Cell) {
					return
				}
			}
			out.Add(p, c.Cell)
		})
	}
	return out
}
