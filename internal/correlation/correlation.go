// Package correlation implements the X-value correlation analysis of the
// paper's Section 3: per-scan-cell X counts, groups of cells sharing the
// same X count, concentration profiles ("90% of X's are captured in 4.9% of
// the scan cells"), and inter-correlation statistics (how many cells of an
// equal-count group capture their X's under the *same* set of test
// patterns). The partitioning algorithm in internal/core is driven by the
// grouping primitives defined here.
//
// This package implements step 1 of DESIGN.md §5.2: grouping a partition's
// X-capturing cells by in-partition X count, the candidate source for every
// split the partitioner considers.
package correlation

import (
	"context"
	"sort"

	"xhybrid/internal/gf2"
	"xhybrid/internal/obs"
	"xhybrid/internal/pool"
	"xhybrid/internal/xmap"
)

// Group is a set of scan cells that capture the same number of X's.
type Group struct {
	// Count is the shared per-cell X count.
	Count int
	// Cells are the member cell indices, ascending.
	Cells []int
}

// Size returns the number of cells in the group.
func (g Group) Size() int { return len(g.Cells) }

// Analysis is the result of X-value correlation analysis over a full X-map.
type Analysis struct {
	// Map is the analyzed X-map.
	Map *xmap.XMap
	// TotalX is the total number of X values.
	TotalX int
	// XCells is the number of cells capturing at least one X.
	XCells int
	// Groups are the equal-count groups, largest group first
	// (ties broken by higher count).
	Groups []Group
}

// Analyze performs the full-pattern-set correlation analysis.
func Analyze(m *xmap.XMap) *Analysis {
	all := gf2.NewVec(m.Patterns())
	all.SetAll()
	return &Analysis{
		Map:    m,
		TotalX: m.TotalX(),
		XCells: m.NumXCells(),
		Groups: GroupsWithin(m, all),
	}
}

// GroupsWithin groups the X-capturing cells by their X count restricted to
// the patterns selected by part. Cells with zero in-partition X's are
// omitted. Groups are sorted by size descending, ties by count descending;
// member cells ascend.
func GroupsWithin(m *xmap.XMap, part gf2.Vec) []Group {
	return GroupsWithinCells(context.Background(), m, part, nil, nil, nil)
}

// GroupsWithinCells is GroupsWithin restricted to a candidate slot list
// (indices into m.XCells, ascending). Cells outside slots are treated as
// having zero in-partition X's — exactly the grouping a full scan produces
// when every omitted cell genuinely has none, which holds whenever slots
// is a superset of the cells intersecting part (e.g. the slot index of any
// ancestor partition). A nil slots scans every X-capturing cell. The
// caller is responsible for the superset property; the partitioner
// maintains it by deriving each child's slot list from its parent's.
//
// The per-cell X counting — the partitioner's hot multiply — fans out over
// pl (nil runs serially); counts land in a slot-indexed slice and the
// grouping pass is serial, so the result is identical for any worker
// count. The counting loop polls ctx every 64 cells and stops once it is
// done; a canceled call returns whatever partial grouping fell out, and
// the caller (core.RunCtx) observes the cancellation itself and discards
// the round, so the partial result never escapes. rec counts invocations
// (correlation.groupings) and per-cell X-count evaluations
// (correlation.cells.counted); a nil rec disables recording.
func GroupsWithinCells(ctx context.Context, m *xmap.XMap, part gf2.Vec, slots []int32, pl *pool.Pool, rec *obs.Recorder) []Group {
	rec.Add("correlation.groupings", 1)
	cells := m.XCells()
	n := len(cells)
	if slots != nil {
		n = len(slots)
	}
	rec.Add("correlation.cells.counted", int64(n))
	done := ctx.Done()
	counts := make([]int, n)
	count := func(i int) {
		if i&63 == 0 && done != nil {
			select {
			case <-done:
				return
			default:
			}
		}
		slot := i
		if slots != nil {
			slot = int(slots[i])
		}
		counts[i] = cells[slot].Patterns.PopCountAnd(part)
	}
	if pl != nil {
		pl.ForEach(n, count)
	} else {
		for i := 0; i < n; i++ {
			count(i)
		}
	}
	byCount := make(map[int][]int)
	for i := 0; i < n; i++ {
		if counts[i] > 0 {
			slot := i
			if slots != nil {
				slot = int(slots[i])
			}
			byCount[counts[i]] = append(byCount[counts[i]], cells[slot].Cell)
		}
	}
	groups := make([]Group, 0, len(byCount))
	for count, cells := range byCount {
		sort.Ints(cells)
		groups = append(groups, Group{Count: count, Cells: cells})
	}
	sort.Slice(groups, func(i, j int) bool {
		if len(groups[i].Cells) != len(groups[j].Cells) {
			return len(groups[i].Cells) > len(groups[j].Cells)
		}
		return groups[i].Count > groups[j].Count
	})
	return groups
}

// LargestGroup returns the group with the most member cells, or ok=false if
// there are no X-capturing cells.
func (a *Analysis) LargestGroup() (Group, bool) {
	if len(a.Groups) == 0 {
		return Group{}, false
	}
	return a.Groups[0], true
}

// MaxCellCount returns the largest per-cell X count, or 0 with no X's.
func (a *Analysis) MaxCellCount() int {
	max := 0
	for _, g := range a.Groups {
		if g.Count > max {
			max = g.Count
		}
	}
	return max
}

// ConcentrationCellFraction returns the smallest fraction of *all* scan
// cells (sorted by descending X count) that together capture at least
// xFraction of all X values. This reproduces statements like "90% of X's
// are captured in 4.9% of the scan cells".
func (a *Analysis) ConcentrationCellFraction(xFraction float64) float64 {
	if a.TotalX == 0 || a.Map.Cells() == 0 {
		return 0
	}
	counts := make([]int, 0, a.XCells)
	for _, c := range a.Map.XCells() {
		counts = append(counts, c.Count())
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	target := xFraction * float64(a.TotalX)
	acc := 0.0
	for i, n := range counts {
		acc += float64(n)
		if acc >= target {
			return float64(i+1) / float64(a.Map.Cells())
		}
	}
	return float64(len(counts)) / float64(a.Map.Cells())
}

// Cluster is a maximal set of cells with identical pattern signatures:
// every member captures its X's under exactly the same test patterns.
type Cluster struct {
	// Cells are the member cell indices, ascending.
	Cells []int
	// Patterns is the shared pattern signature.
	Patterns gf2.Vec
}

// SignatureClusters partitions the cells of an equal-count group by exact
// pattern signature, largest cluster first. This measures the paper's
// inter-correlation: in its industrial example, 172 of the 177 cells with
// 406 X's capture them under the same 406 patterns.
func (a *Analysis) SignatureClusters(g Group) []Cluster {
	bySig := make(map[string][]int)
	sigs := make(map[string]gf2.Vec)
	for _, cell := range g.Cells {
		bits, ok := a.Map.CellPatterns(cell)
		if !ok {
			continue
		}
		key := bits.String()
		bySig[key] = append(bySig[key], cell)
		if _, seen := sigs[key]; !seen {
			sigs[key] = bits
		}
	}
	clusters := make([]Cluster, 0, len(bySig))
	for key, cells := range bySig {
		sort.Ints(cells)
		clusters = append(clusters, Cluster{Cells: cells, Patterns: sigs[key]})
	}
	sort.Slice(clusters, func(i, j int) bool {
		if len(clusters[i].Cells) != len(clusters[j].Cells) {
			return len(clusters[i].Cells) > len(clusters[j].Cells)
		}
		return clusters[i].Cells[0] < clusters[j].Cells[0]
	})
	return clusters
}

// InterCorrelation summarizes how strongly an equal-count group is
// inter-correlated: the fraction of its cells belonging to the largest
// identical-signature cluster (1.0 = perfectly correlated).
func (a *Analysis) InterCorrelation(g Group) float64 {
	if g.Size() == 0 {
		return 0
	}
	clusters := a.SignatureClusters(g)
	if len(clusters) == 0 {
		return 0
	}
	return float64(len(clusters[0].Cells)) / float64(g.Size())
}
