package xhybrid

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// The public Table 1 runner must reproduce the paper's shape at full scale.
func TestTable1PublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale Table 1 in -short mode")
	}
	rows, err := Table1(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Paper reference values (see EXPERIMENTS.md) with generous bands.
	want := []struct {
		circuit          string
		proposedLo, hi   float64 // millions
		impvCancelLo, up float64
	}{
		{"ckt-a", 4.5, 6.5, 1.1, 1.5},
		{"ckt-b", 10.5, 14.5, 1.8, 2.5},
		{"ckt-c", 36, 47, 1.3, 1.7},
	}
	for i, w := range want {
		r := rows[i]
		if r.Circuit != w.circuit {
			t.Fatalf("row %d circuit %s", i, r.Circuit)
		}
		prop := float64(r.ProposedBits) / 1e6
		if prop < w.proposedLo || prop > w.hi {
			t.Fatalf("%s proposed %.2fM outside [%v,%v]", r.Circuit, prop, w.proposedLo, w.hi)
		}
		if r.ImprovementOverCancelOnly < w.impvCancelLo || r.ImprovementOverCancelOnly > w.up {
			t.Fatalf("%s impv/cancel %.2f outside [%v,%v]", r.Circuit, r.ImprovementOverCancelOnly, w.impvCancelLo, w.up)
		}
		// The ordering claims of the paper.
		if !(r.MaskOnlyBits > r.CancelOnlyBits && r.CancelOnlyBits > r.ProposedBits) {
			t.Fatalf("%s ordering broken: %d / %d / %d", r.Circuit, r.MaskOnlyBits, r.CancelOnlyBits, r.ProposedBits)
		}
		if r.TestTimeProposed >= r.TestTimeCancelOnly {
			t.Fatalf("%s test time not reduced", r.Circuit)
		}
	}
	var buf bytes.Buffer
	if err := WriteTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ckt-b") {
		t.Fatal("rendered table missing rows")
	}
}

// Resampled workloads at seeds 7 and 99 keep the Table 1 shape. Not every
// seed does: TestTable1SeedCollapse pins one where the paper heuristic
// collapses.
func TestTable1SeedRobust(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale Table 1 in -short mode")
	}
	for _, seed := range []int64{7, 99} {
		rows, err := Table1(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if !(r.MaskOnlyBits > r.CancelOnlyBits && r.CancelOnlyBits > r.ProposedBits) {
				t.Fatalf("seed %d %s: ordering broken", seed, r.Circuit)
			}
			if r.ImprovementOverCancelOnly < 1.05 {
				t.Fatalf("seed %d %s: improvement %.2f collapsed", seed, r.Circuit, r.ImprovementOverCancelOnly)
			}
		}
	}
}

// The paper heuristic is not seed-robust: on CKT-B seeds 5 and 65,
// Algorithm 1 rejects its first split, so the plan stays one partition and
// costs more than canceling alone (26,702,711 against 26,666,636 bits on
// both). greedy-cost on the same maps still splits well below
// canceling-only (12,367,619 and 12,371,221 bits).
func TestTable1SeedCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale CKT-B in -short mode")
	}
	for _, seed := range []int64{5, 65} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			x, err := Workload("ckt-b", seed)
			if err != nil {
				t.Fatal(err)
			}
			paper, err := Partition(x, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(paper.Partitions) != 1 || paper.TotalBits < paper.CancelOnlyBits {
				t.Errorf("paper: %d partitions, %d bits against %d canceling-only; want the 1-partition collapse at or above canceling-only",
					len(paper.Partitions), paper.TotalBits, paper.CancelOnlyBits)
			}
			greedy, err := Partition(x, Options{Strategy: "greedy-cost"})
			if err != nil {
				t.Fatal(err)
			}
			if greedy.TotalBits >= greedy.CancelOnlyBits {
				t.Errorf("greedy-cost: %d bits, want below canceling-only %d", greedy.TotalBits, greedy.CancelOnlyBits)
			}
		})
	}
}
