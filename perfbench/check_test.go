package main

import (
	"strings"
	"testing"

	"xhybrid"
)

// paperPlan partitions the paper's Figure 4 example.
func paperPlan(t *testing.T) (*xhybrid.XLocations, *xhybrid.Plan) {
	t.Helper()
	x := xhybrid.PaperExample()
	plan, err := xhybrid.Partition(x, xhybrid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return x, plan
}

func TestCheckPlanAcceptsEngineOutput(t *testing.T) {
	x, plan := paperPlan(t)
	if err := checkPlan(x, plan, 32, 7); err != nil {
		t.Fatal(err)
	}
	greedy, err := xhybrid.Partition(x, xhybrid.Options{Strategy: "greedy-cost", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPlan(x, greedy, 32, 7); err != nil {
		t.Fatal(err)
	}
}

func TestCheckPlanRejectsIllegalMask(t *testing.T) {
	x, plan := paperPlan(t)
	// Mask one more cell in some partition: a cell that is not X under
	// every pattern of that partition.
	for i := range plan.Partitions {
		part := &plan.Partitions[i]
		for cell := 0; cell < x.Cells(); cell++ {
			if masksCell(part, cell) || allX(x, part.Patterns, cell) {
				continue
			}
			part.MaskedCells = append(part.MaskedCells, cell)
			err := checkPlan(x, plan, 32, 7)
			if err == nil || !strings.Contains(err.Error(), "is not X") {
				t.Fatalf("illegally masked cell %d: err = %v", cell, err)
			}
			return
		}
	}
	t.Fatal("no cell to mask illegally")
}

func TestCheckPlanRejectsBitTotal(t *testing.T) {
	for _, delta := range []int{-1, 1} {
		x, plan := paperPlan(t)
		plan.TotalBits += delta
		err := checkPlan(x, plan, 32, 7)
		if err == nil || !strings.Contains(err.Error(), "Section 4") {
			t.Errorf("bit total off by %d: err = %v", delta, err)
		}
	}
}

func TestCheckPlanRejectsLostPattern(t *testing.T) {
	x, plan := paperPlan(t)
	last := &plan.Partitions[len(plan.Partitions)-1]
	last.Patterns = last.Patterns[:len(last.Patterns)-1]
	if err := checkPlan(x, plan, 32, 7); err == nil {
		t.Error("a plan that drops a pattern passed the check")
	}
}

func masksCell(part *xhybrid.PartitionInfo, cell int) bool {
	for _, c := range part.MaskedCells {
		if c == cell {
			return true
		}
	}
	return false
}

func allX(x *xhybrid.XLocations, patterns []int, cell int) bool {
	for _, p := range patterns {
		if !x.HasX(p, cell/x.ChainLen(), cell%x.ChainLen()) {
			return false
		}
	}
	return true
}
