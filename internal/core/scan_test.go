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
	if !st.statsReady.Load() {
		t.Fatalf("%s: stats not filled", what)
	}
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

// TestScanMatchesPartitionMask locks the bounded column scan and the
// column-order candidate walk against references that share no code with
// them, on pattern counts around the word boundaries: every split side's
// (maskedX, maskCells) equals xmask.PartitionMask's, parentless and
// self-indexed states price the same way, every built column index equals a
// brute-force one, and ensureCands equals the slot-order enumeration for
// every committed partition. Split cells range
// over the whole map, so sides that miss a cell entirely (an empty X side)
// are covered too.
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
				root := e.stateFor(all)
				root.ensureIndex(e, nil)
				root.ensureStats(e)
				checkStats(t, m, root, "root")
				checkIndex(t, e, root, "root")

				// Walk a random split tree: price random splits of one live
				// partition, index the non-empty sides as committed
				// partitions, and descend into one of them.
				live := []*partState{root}
				for depth := 0; depth < 4 && len(live) > 0; depth++ {
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
				// index, whether ensureStats builds it or finds it built.
				for k := 0; k < 6; k++ {
					loose := e.stateFor(randVec(r, patterns, 1+k%3))
					loose.ensureStats(e)
					checkStats(t, m, loose, "parentless state")
					own := e.stateFor(randVec(r, patterns, 2+k%3))
					own.ensureIndex(e, nil)
					own.ensureStats(e)
					checkStats(t, m, own, "self-indexed state")
					checkIndex(t, e, own, "self-indexed state")
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
