package core

import (
	"testing"

	"xhybrid/internal/misr"
	"xhybrid/internal/scan"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
)

// retryMap builds a workload where Algorithm 1 stops prematurely: the
// *largest* equal-count group (6 cells, 50 X's each, mutually different
// pattern sets) yields a rejected split, while a smaller group (4 cells
// with one identical 40-pattern signature) yields an accepted one. The
// paper's procedure tries only the largest group and gives up; a selector
// that prices every split finds the smaller group.
func retryMap() *xmap.XMap {
	m := xmap.New(100, 100)
	// Group A: cells 0..5, pattern windows [7i, 7i+50) — same count (50),
	// all distinct sets, heavy overlap, and no window is another's
	// complement, so a split on one masks only that one cell's X's.
	for i := 0; i < 6; i++ {
		for k := 0; k < 50; k++ {
			m.Add(7*i+k, i)
		}
	}
	// Group B: cells 20..23 share the exact signature {0..19} ∪ {55..74},
	// which straddles every group-A window.
	for _, c := range []int{20, 21, 22, 23} {
		for p := 0; p < 20; p++ {
			m.Add(p, c)
		}
		for p := 55; p < 75; p++ {
			m.Add(p, c)
		}
	}
	return m
}

func retryParams(s Strategy) Params {
	return Params{
		Geom:     scan.MustGeometry(10, 10),
		Cancel:   xcancel.Config{MISR: misr.MustStandard(10), Q: 1},
		Strategy: s,
	}
}

// TestPaperStopsWhereGreedyContinues pins Algorithm 1's stop rule on
// retryMap: paper tries the 6-cell group once, the split is rejected and
// the plan stays at one partition, while greedy-cost splits on the 4-cell
// group's signature and ends below it.
func TestPaperStopsWhereGreedyContinues(t *testing.T) {
	m := retryMap()

	paper, err := Run(m, retryParams(StrategyPaper))
	if err != nil {
		t.Fatal(err)
	}
	if len(paper.Partitions) != 1 {
		t.Fatalf("paper partitions = %d, want 1", len(paper.Partitions))
	}
	if len(paper.Rounds) != 1 || paper.Rounds[0].Accepted {
		t.Fatalf("paper rounds = %+v, want one rejected attempt", paper.Rounds)
	}
	if paper.Rounds[0].GroupSize != 6 {
		t.Fatalf("paper tried group of %d, want 6", paper.Rounds[0].GroupSize)
	}
	if paper.TotalBits != 612 {
		t.Fatalf("paper total = %d, want 612", paper.TotalBits)
	}

	greedy, err := Run(m, retryParams(StrategyGreedyCost))
	if err != nil {
		t.Fatal(err)
	}
	if len(greedy.Partitions) < 2 {
		t.Fatalf("greedy-cost partitions = %d, want >= 2", len(greedy.Partitions))
	}
	if greedy.TotalBits != 520 {
		t.Fatalf("greedy-cost total = %d, want 520", greedy.TotalBits)
	}
	// The 4 group-B cells must be masked somewhere (their X's removed).
	if greedy.MaskedX < 160 {
		t.Fatalf("greedy-cost masked %d X's, want >= 160", greedy.MaskedX)
	}
}
