package correlation

import (
	"context"
	"math/rand"
	"testing"

	"xhybrid/internal/gf2"
	"xhybrid/internal/xmap"
)

// paperFigure4 builds the exact Figure 4 X-map: 8 patterns, 5 chains x 3
// cells. Cell indices are chain-major with chain length 3:
// SCc[p] (1-based in the paper) = (c-1)*3 + (p-1).
func paperFigure4() *xmap.XMap {
	m := xmap.New(8, 15)
	add := func(chain, pos int, patterns ...int) {
		cell := (chain-1)*3 + (pos - 1)
		for _, p := range patterns {
			m.Add(p-1, cell)
		}
	}
	add(1, 1, 1, 4, 5, 6)
	add(2, 1, 1, 4, 5, 6)
	add(3, 1, 1, 4, 5, 6)
	add(2, 3, 2, 3)
	add(4, 3, 1, 2, 3, 4, 5, 7, 8)
	add(5, 2, 1, 2, 4, 5, 7, 8)
	add(5, 3, 6)
	return m
}

func TestFigure4Analysis(t *testing.T) {
	m := paperFigure4()
	if m.TotalX() != 28 {
		t.Fatalf("TotalX = %d, want 28 (paper: 28 X's)", m.TotalX())
	}
	a := Analyze(m)
	if a.XCells != 7 {
		t.Fatalf("XCells = %d, want 7", a.XCells)
	}
	// "the most number of X's captured in one scan cell is 7"
	if a.MaxCellCount() != 7 {
		t.Fatalf("MaxCellCount = %d, want 7", a.MaxCellCount())
	}
	// "the largest number of scan cells having the same number of X's is 3
	// (3 scan cells capturing 4 X's)"
	lg, ok := a.LargestGroup()
	if !ok || lg.Count != 4 || lg.Size() != 3 {
		t.Fatalf("LargestGroup = %+v, want count 4 size 3", lg)
	}
	wantCells := []int{0, 3, 6} // first cells of SC1, SC2, SC3
	for i, c := range wantCells {
		if lg.Cells[i] != c {
			t.Fatalf("group cells = %v, want %v", lg.Cells, wantCells)
		}
	}
	// Those three cells are perfectly inter-correlated (same 4 patterns).
	if ic := a.InterCorrelation(lg); ic != 1.0 {
		t.Fatalf("InterCorrelation = %f, want 1.0", ic)
	}
}

func TestGroupsSortedBySizeThenCount(t *testing.T) {
	a := Analyze(paperFigure4())
	for i := 1; i < len(a.Groups); i++ {
		pr, cu := a.Groups[i-1], a.Groups[i]
		if cu.Size() > pr.Size() {
			t.Fatalf("groups not sorted by size: %v before %v", pr, cu)
		}
		if cu.Size() == pr.Size() && cu.Count > pr.Count {
			t.Fatalf("ties not broken by count: %v before %v", pr, cu)
		}
	}
	// Figure 4 groups: {4:3 cells}, then singles with counts 7, 6, 2, 1.
	if len(a.Groups) != 5 {
		t.Fatalf("got %d groups, want 5", len(a.Groups))
	}
	if a.Groups[1].Count != 7 || a.Groups[2].Count != 6 {
		t.Fatalf("singleton order wrong: %+v", a.Groups)
	}
}

func TestGroupsWithinPartition(t *testing.T) {
	m := paperFigure4()
	// Partition 1 = patterns {1,4,5,6} (0-based {0,3,4,5}).
	part := gf2.FromIndices(8, 0, 3, 4, 5)
	groups := GroupsWithin(m, part)
	// In-partition counts: SC1-3[1]: 4; SC4[3]: 3; SC5[2]: 3; SC5[3]: 1.
	var g3 *Group
	for i := range groups {
		if groups[i].Count == 3 {
			g3 = &groups[i]
		}
	}
	if g3 == nil || g3.Size() != 2 {
		t.Fatalf("count-3 group wrong: %+v", groups)
	}
	// SC4[3] = cell 11, SC5[2] = cell 13.
	if g3.Cells[0] != 11 || g3.Cells[1] != 13 {
		t.Fatalf("count-3 cells = %v, want [11 13]", g3.Cells)
	}
	// SC2[3] (cell 5) has zero X's in this partition and must be absent.
	for _, g := range groups {
		for _, c := range g.Cells {
			if c == 5 {
				t.Fatal("cell with zero in-partition X's included")
			}
		}
	}
}

func TestConcentration(t *testing.T) {
	// 10 cells, 100 patterns: one hot cell with 90 X's, 9 cells with 1 X.
	m := xmap.New(100, 10)
	for p := 0; p < 90; p++ {
		m.Add(p, 0)
	}
	for c := 1; c <= 9; c++ {
		m.Add(c, c)
	}
	a := Analyze(m)
	// 90% of X's (89.1 of 99) needs just the hot cell -> 1/10 of cells.
	if f := a.ConcentrationCellFraction(0.90); f != 0.1 {
		t.Fatalf("ConcentrationCellFraction(0.90) = %f, want 0.1", f)
	}
	// 100% needs all 10 X cells.
	if f := a.ConcentrationCellFraction(1.0); f != 1.0 {
		t.Fatalf("ConcentrationCellFraction(1.0) = %f, want 1.0", f)
	}
}

func TestConcentrationEmpty(t *testing.T) {
	a := Analyze(xmap.New(5, 5))
	if a.ConcentrationCellFraction(0.9) != 0 {
		t.Fatal("empty map concentration must be 0")
	}
	if _, ok := a.LargestGroup(); ok {
		t.Fatal("LargestGroup on empty map must report !ok")
	}
}

func TestSignatureClusters(t *testing.T) {
	// Mimic Section 3: a group of 5 cells with the same count; 3 share one
	// signature, 2 share another.
	m := xmap.New(10, 5)
	for _, c := range []int{0, 1, 2} {
		for _, p := range []int{1, 3, 5} {
			m.Add(p, c)
		}
	}
	for _, c := range []int{3, 4} {
		for _, p := range []int{2, 4, 6} {
			m.Add(p, c)
		}
	}
	a := Analyze(m)
	lg, _ := a.LargestGroup()
	if lg.Count != 3 || lg.Size() != 5 {
		t.Fatalf("group = %+v", lg)
	}
	clusters := a.SignatureClusters(lg)
	if len(clusters) != 2 {
		t.Fatalf("got %d clusters, want 2", len(clusters))
	}
	if len(clusters[0].Cells) != 3 || len(clusters[1].Cells) != 2 {
		t.Fatalf("cluster sizes %d,%d want 3,2", len(clusters[0].Cells), len(clusters[1].Cells))
	}
	if got := a.InterCorrelation(lg); got != 3.0/5.0 {
		t.Fatalf("InterCorrelation = %f, want 0.6", got)
	}
}

// Property-ish check: group membership is a partition of X-capturing cells.
func TestGroupsPartitionXCells(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := xmap.New(30, 50)
	for i := 0; i < 300; i++ {
		m.Add(r.Intn(30), r.Intn(50))
	}
	a := Analyze(m)
	seen := make(map[int]bool)
	total := 0
	for _, g := range a.Groups {
		for _, c := range g.Cells {
			if seen[c] {
				t.Fatalf("cell %d in two groups", c)
			}
			seen[c] = true
			total++
			// Every member's count must equal the group count.
			bits, ok := m.CellPatterns(c)
			if !ok || bits.PopCount() != g.Count {
				t.Fatalf("cell %d count mismatch in group %d", c, g.Count)
			}
		}
	}
	if total != m.NumXCells() {
		t.Fatalf("groups cover %d cells, want %d", total, m.NumXCells())
	}
}

// GroupsWithinCells with any superset slot list must reproduce the full-scan
// grouping exactly, for random maps and random sub-partitions.
func TestGroupsWithinCellsMatchesFullScan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		m := xmap.New(30, 120)
		for i := 0; i < 250; i++ {
			m.Add(r.Intn(30), r.Intn(120))
		}
		parent := gf2.NewVec(30)
		for i := 0; i < 30; i++ {
			if r.Intn(2) == 0 {
				parent.Set(i)
			}
		}
		child := parent.Clone()
		for i := 0; i < 30; i += 3 {
			child.Clear(i)
		}
		var parentSlots []int32
		for s, c := range m.XCells() {
			if c.Patterns.PopCountAnd(parent) > 0 {
				parentSlots = append(parentSlots, int32(s))
			}
		}
		for _, part := range []gf2.Vec{parent, child} {
			want := GroupsWithin(m, part)
			got := GroupsWithinCells(context.Background(), m, part, parentSlots, nil, nil)
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d groups via slots, want %d", trial, len(got), len(want))
			}
			for i := range want {
				if got[i].Count != want[i].Count || len(got[i].Cells) != len(want[i].Cells) {
					t.Fatalf("trial %d group %d: got %+v want %+v", trial, i, got[i], want[i])
				}
				for j := range want[i].Cells {
					if got[i].Cells[j] != want[i].Cells[j] {
						t.Fatalf("trial %d group %d cell %d differs", trial, i, j)
					}
				}
			}
		}
	}
}
