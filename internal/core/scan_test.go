package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"xhybrid/internal/gf2"
	"xhybrid/internal/misr"
	"xhybrid/internal/scan"
	"xhybrid/internal/workload"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
	"xhybrid/internal/xmask"
)

// randVec returns a random n-bit vector with each bit set with probability
// 1/k.
func randVec(r *rand.Rand, n, k int) gf2.Vec {
	v := gf2.NewVec(n)
	for i := 0; i < n; i++ {
		if r.Intn(k) == 0 {
			v.Set(i)
		}
	}
	return v
}

// columnMap builds a random map over the given pattern count that stresses
// the column table: most cells draw their pattern set from a small pool, so
// columns repeat, some cells are X under every pattern, some under one
// pattern only, and some never capture an X.
func columnMap(r *rand.Rand, patterns int) *xmap.XMap {
	const cells = 48
	m := xmap.New(patterns, cells)
	pool := make([]gf2.Vec, 5)
	for i := range pool {
		pool[i] = randVec(r, patterns, 1+r.Intn(4))
	}
	for cell := 0; cell < cells; cell++ {
		var v gf2.Vec
		switch r.Intn(6) {
		case 0:
			v = gf2.NewVec(patterns)
			v.SetAll()
		case 1:
			v = gf2.FromIndices(patterns, r.Intn(patterns))
		case 2:
			v = randVec(r, patterns, 2)
		case 3:
			continue
		default:
			v = pool[r.Intn(len(pool))]
		}
		v.ForEach(func(p int) { m.Add(p, cell) })
	}
	return m
}

// refCands is the slot-order candidate enumeration the column walk must
// reproduce: one representative cell per distinct in-partition signature
// (its first cell in slot order), gain summed over every cell sharing the
// signature, sorted by gain with sort.Slice and capped.
func refCands(m *xmap.XMap, part gf2.Vec, limit int) []int {
	size := part.PopCount()
	type cand struct{ cell, gain int }
	sigs := gf2.NewVecSet()
	var cands []cand
	for _, c := range m.XCells() {
		n := c.Patterns.PopCountAnd(part)
		if n == 0 || n >= size {
			continue
		}
		if id, existed := sigs.Add(gf2.AndOf(c.Patterns, part)); existed {
			cands[id].gain += n
			continue
		}
		cands = append(cands, cand{c.Cell, n})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].gain > cands[b].gain })
	if len(cands) > limit {
		cands = cands[:limit]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.cell
	}
	return out
}

// checkStats compares a priced state with xmask.PartitionMask on its
// partition, which shares no code with the column scan.
func checkStats(t *testing.T, m *xmap.XMap, st *partState, what string) {
	t.Helper()
	mask, mx := xmask.PartitionMask(m, st.part)
	if st.maskedX != mx || st.maskCells != mask.Cells.PopCount() {
		t.Fatalf("%s: scan (maskedX %d, cells %d), PartitionMask (%d, %d)",
			what, st.maskedX, st.maskCells, mx, mask.Cells.PopCount())
	}
}

// checkIndex compares a partition's column index with a brute-force one:
// byCol lists, in column order, exactly the columns holding an X inside the
// partition with their in-partition counts; byCount is byCol stably sorted
// by descending count; cells sums their multiplicities.
func checkIndex(t *testing.T, e *evaluator, st *partState, what string) {
	t.Helper()
	idx := st.idx.Load()
	var want []colCount
	cells := 0
	for c := range e.cols.mult {
		col := e.m.XCells()[e.cols.firstSlot[c]].Patterns
		if n := col.PopCountAnd(st.part); n > 0 {
			want = append(want, colCount{int32(c), int32(n)})
			cells += int(e.cols.mult[c])
		}
	}
	byCount := append([]colCount(nil), want...)
	sort.SliceStable(byCount, func(a, b int) bool { return byCount[a].count > byCount[b].count })
	if fmt.Sprint(idx.byCol) != fmt.Sprint(want) || fmt.Sprint(idx.byCount) != fmt.Sprint(byCount) || idx.cells != cells {
		t.Fatalf("%s: index byCol %v byCount %v cells %d, want %v %v %d",
			what, idx.byCol, idx.byCount, idx.cells, want, byCount, cells)
	}
}

// checkGreedy runs selectGreedy over live and checks it against
// references built from xmask.PartitionMask on materialized sides: every
// partition's memo holds the slot-order candidates with, in the same
// order, the two sides' maskedX minus the partition's, and the pick is the
// earliest candidate of lowest cost in (partition, gain rank) order.
func checkGreedy(t *testing.T, e *evaluator, live []*partState, what string) {
	t.Helper()
	maskedOf := func(v gf2.Vec) int {
		_, mx := xmask.PartitionMask(e.m, v)
		return mx
	}
	img := e.params.maskImageBits()
	masked := 0
	for _, st := range live {
		masked += maskedOf(st.part)
	}
	maskBits := img * len(live)
	cost := maskBits + e.cancelBits(masked)
	cells, gains := make([][]int, len(live)), make([][]int, len(live))
	want, wantCost := Split{}, cost
	for i, st := range live {
		if st.size < 2 {
			continue
		}
		for _, cell := range refCands(e.m, st.part, greedyCandidateCap) {
			bits, _ := e.m.CellPatterns(cell)
			gain := maskedOf(gf2.AndOf(st.part, bits)) + maskedOf(gf2.AndNotOf(st.part, bits)) - maskedOf(st.part)
			cells[i], gains[i] = append(cells[i], cell), append(gains[i], gain)
			if c := maskBits + img + e.cancelBits(masked+gain); c < wantCost {
				want, wantCost = Split{Partition: i, Cell: cell}, c
			}
		}
	}
	got, ok := e.selectGreedy(live, masked, maskBits, cost)
	if ok != (wantCost < cost) || ok && got != want {
		t.Fatalf("%s: selectGreedy = (%+v, %t), reference (%+v, %t)", what, got, ok, want, wantCost < cost)
	}
	for i, st := range live {
		if st.size < 2 {
			continue
		}
		idx := st.idx.Load()
		if fmt.Sprint(idx.cands, idx.gains) != fmt.Sprint(cells[i], gains[i]) {
			t.Fatalf("%s: partition %d memo cells %v gains %v, PartitionMask reference %v %v",
				what, i, idx.cands, idx.gains, cells[i], gains[i])
		}
	}
}

// TestScanMatchesPartitionMask locks the bounded column scan, the
// column-order candidate walk and the greedy gain memo against references
// that share no code with them, on pattern counts around the word
// boundaries: every split side's (maskedX, maskCells) equals
// xmask.PartitionMask's, parentless states price the same way, every built
// column index equals a brute-force one, ensureCands equals the slot-order
// enumeration for every committed partition, and every walked partition's
// memoized split gains and greedy pick match PartitionMask's. Split cells
// range over the whole map, so sides that miss a cell entirely (an empty X
// side) are covered too.
func TestScanMatchesPartitionMask(t *testing.T) {
	for _, patterns := range []int{1, 63, 64, 65, 130} {
		t.Run(fmt.Sprintf("patterns=%d", patterns), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(patterns)))
			sawDup, sawEmptySide := false, false
			for trial := 0; trial < 12; trial++ {
				m := columnMap(r, patterns)
				cells := m.XCells()
				if len(cells) == 0 {
					continue
				}
				params := Params{
					Geom:    scan.MustGeometry(6, 8),
					Cancel:  xcancel.Config{MISR: misr.MustStandard(10), Q: 2},
					Workers: 1,
				}
				e := newEvaluator(context.Background(), m, params)
				if len(e.cols.mult) < len(cells) {
					sawDup = true
				}
				all := gf2.NewVec(patterns)
				all.SetAll()
				root := e.indexedState(all)
				checkStats(t, m, root, "root")
				checkIndex(t, e, root, "root")

				// Walk a random split tree: price random splits of one live
				// partition, index the non-empty sides as committed
				// partitions, and descend into one of them.
				live := []*partState{root}
				for depth := 0; depth < 4 && len(live) > 0; depth++ {
					checkGreedy(t, e, live, fmt.Sprintf("trial %d depth %d", trial, depth))
					parent := live[r.Intn(len(live))]
					for _, limit := range []int{2, greedyCandidateCap} {
						got := freshCands(e, parent, limit)
						if want := refCands(m, parent.part, limit); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("trial %d depth %d limit %d: ensureCands %v, slot-order reference %v",
								trial, depth, limit, got, want)
						}
					}
					var sides []*partState
					for k := 0; k < 8; k++ {
						c := cells[r.Intn(len(cells))]
						xs, rs := e.splitStates(parent, c.Cell)
						if xs.size == 0 || rs.size == 0 {
							sawEmptySide = true
						}
						checkStats(t, m, xs, fmt.Sprintf("trial %d X side of cell %d", trial, c.Cell))
						checkStats(t, m, rs, fmt.Sprintf("trial %d rest side of cell %d", trial, c.Cell))
						if xs.size > 0 && rs.size > 0 {
							sides = append(sides, xs, rs)
						}
					}
					if len(sides) == 0 {
						break
					}
					live = live[:0]
					for _, st := range sides {
						st.ensureIndex(e, parent)
						checkIndex(t, e, st, fmt.Sprintf("trial %d committed side", trial))
						live = append(live, st)
					}
				}

				// Parentless states price like PartitionMask from their own
				// index.
				for k := 0; k < 12; k++ {
					loose := e.indexedState(randVec(r, patterns, 1+k%4))
					checkStats(t, m, loose, "parentless state")
					checkIndex(t, e, loose, "parentless state")
				}
				e.close()
			}
			if !sawDup {
				t.Error("no trial had duplicated columns")
			}
			if !sawEmptySide && patterns > 1 {
				t.Error("no split had an empty side")
			}
		})
	}
}

// freshCands runs ensureCands on a copy of st's index with empty memos, so
// every limit is a computation, not a memo hit.
func freshCands(e *evaluator, st *partState, limit int) []int {
	fresh := &partState{part: st.part, size: st.size}
	fresh.idx.Store(&partIndex{colIndex: st.ensureIndex(e, nil).colIndex})
	return fresh.ensureCands(e, limit)
}

// TestGreedyReduceTakesEarliestLowestCost pins selectGreedy's reduce rule —
// lowest cost at the earliest (partition, gain rank) position — apart from
// a highest-gain rule. Within a run the two agree: cancelBits grows by more
// than one bit per residual X, so distinct gains never tie on cost. They
// part only where the residual clamps at zero, so the test hands the
// selector a running masked total that leaves fewer residual X's than any
// positive gain: every such candidate then costs the same, and the
// earliest one must win even though a later one gains more.
func TestGreedyReduceTakesEarliestLowestCost(t *testing.T) {
	prof := workload.Scaled(workload.CKTB(), 16)
	m, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	params := Params{
		Geom:                 prof.Geometry(),
		Cancel:               xcancel.Config{MISR: misr.MustStandard(32), Q: 7},
		MaskBitsPerPartition: 1,
		Workers:              1,
	}
	e := newEvaluator(context.Background(), m, params)
	defer e.close()
	all := gf2.NewVec(m.Patterns())
	all.SetAll()
	root := e.indexedState(all)
	live := []*partState{root}
	// A first pass fills the memo; the gains do not depend on the totals.
	e.selectGreedy(live, root.maskedX, 1, 1)
	idx := root.idx.Load()
	first, minGain, later := -1, 0, false
	for k, g := range idx.gains {
		switch {
		case g <= 0:
		case first < 0:
			first, minGain = k, g
		default:
			minGain = min(minGain, g)
			later = later || g > idx.gains[first]
		}
	}
	if first < 0 || !later {
		t.Fatalf("fixture gains %v hold no higher gain after the first positive one", idx.gains)
	}
	masked := e.totalX - minGain
	got, ok := e.selectGreedy(live, masked, 1, 1+e.cancelBits(masked))
	if want := idx.cands[first]; !ok || got != (Split{Cell: want}) {
		t.Fatalf("selectGreedy = (%+v, %t), want cell %d: the earliest of the tied candidates", got, ok, want)
	}
}
