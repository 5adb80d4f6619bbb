package fault

import (
	"testing"

	"xhybrid/internal/atpg"
	"xhybrid/internal/logic"
	"xhybrid/internal/netlist"
)

// chainCircuit: pi -> NOT(a) -> BUF(b) -> NOT(c) -> scan cell, all
// fanout-free, so faults along the chain collapse onto pi.
func chainCircuit(t *testing.T) (*netlist.Circuit, []int) {
	b := netlist.NewBuilder("chain")
	pi := b.Input("pi")
	a := b.Gate(netlist.Not, pi)
	bb := b.Gate(netlist.Buf, a)
	cc := b.Gate(netlist.Not, bb)
	b.ScanDFF(cc)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c, []int{pi, a, bb, cc}
}

func TestCollapseChain(t *testing.T) {
	c, nodes := chainCircuit(t)
	var faults []Def
	for _, n := range nodes {
		faults = append(faults, Def{Node: n, SA: logic.Zero}, Def{Node: n, SA: logic.One})
	}
	classes := Collapse(c, faults)
	// The whole chain collapses to pi/SA0 and pi/SA1.
	if len(classes) != 2 {
		t.Fatalf("classes = %d, want 2: %+v", len(classes), classes)
	}
	for _, cl := range classes {
		if cl.Rep.Node != nodes[0] {
			t.Fatalf("representative %v not on the chain root", cl.Rep)
		}
		if len(cl.Members) != 4 {
			t.Fatalf("class has %d members, want 4", len(cl.Members))
		}
	}
	// Polarity: SA0 on cc (after NOT-BUF-NOT = 2 inversions from pi... pi
	// -> NOT a (1) -> BUF b (1) -> NOT c (0 inversions net). cc/SA0 should
	// collapse to pi/SA0.
	for _, cl := range classes {
		want := cl.Rep.SA
		for _, m := range cl.Members {
			inv := 0
			switch m.Node {
			case nodes[1], nodes[2]: // after first NOT (a, b)
				inv = 1
			case nodes[3]: // after second NOT
				inv = 0
			}
			got := m.SA
			if inv == 1 {
				got = logic.Not(got)
			}
			if got != want {
				t.Fatalf("member %v polarity wrong for rep %v", m, cl.Rep)
			}
		}
	}
}

// With fanout on the chain, collapsing must stop.
func TestCollapseStopsAtFanout(t *testing.T) {
	b := netlist.NewBuilder("fan")
	pi := b.Input("pi")
	buf := b.Gate(netlist.Buf, pi)
	other := b.Gate(netlist.Not, pi) // pi fans out twice
	b.ScanDFF(buf)
	b.ScanDFF(other)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	faults := []Def{{Node: buf, SA: logic.Zero}, {Node: pi, SA: logic.Zero}}
	classes := Collapse(c, faults)
	if len(classes) != 2 {
		t.Fatalf("fanout stem collapsed anyway: %+v", classes)
	}
}

// Collapsed members must have identical detection behavior.
func TestCollapsedMembersEquivalent(t *testing.T) {
	c, err := netlist.Generate(netlist.GenConfig{
		Name: "col", ScanCells: 48, PIs: 5, XClusters: 1, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := atpg.GenerateStimuli(48, len(c.ScanCells), len(c.PIs), 9)
	all := AllFaults(c)
	classes := Collapse(c, all)
	if len(classes) >= len(all) {
		t.Fatalf("no collapsing happened: %d classes for %d faults", len(classes), len(all))
	}
	checked := 0
	for _, cl := range classes {
		if len(cl.Members) < 2 || checked > 6 {
			continue
		}
		checked++
		res, err := Simulate(c, st.Loads, st.PIs, cl.Members, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(cl.Members); i++ {
			if res.DetectedBy[i] != res.DetectedBy[0] {
				t.Fatalf("class %v members diverge: detected by %v", cl.Rep, res.DetectedBy)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no multi-member classes to check")
	}
	// Representatives cover every class.
	if len(Representatives(classes)) != len(classes) {
		t.Fatal("Representatives wrong length")
	}
}

// TestCollapseOrder: every fault lands in exactly one class, in input order
// within it, representatives are distinct, and classes come in the order of
// their first member's appearance in the input.
func TestCollapseOrder(t *testing.T) {
	c, err := netlist.Generate(netlist.GenConfig{
		Name: "order", ScanCells: 96, PIs: 6, XClusters: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := AllFaults(c)
	// Reverse the list so input order differs from node order.
	for i, j := 0, len(all)-1; i < j; i, j = i+1, j-1 {
		all[i], all[j] = all[j], all[i]
	}
	pos := make(map[Def]int, len(all))
	for i, f := range all {
		pos[f] = i
	}
	classes := Collapse(c, all)
	if len(classes) >= len(all) {
		t.Fatalf("no collapsing happened: %d classes for %d faults", len(classes), len(all))
	}
	reps := make(map[Def]bool)
	seen, lastFirst := 0, -1
	for _, cl := range classes {
		if reps[cl.Rep] {
			t.Fatalf("representative %v heads two classes", cl.Rep)
		}
		reps[cl.Rep] = true
		if first := pos[cl.Members[0]]; first <= lastFirst {
			t.Fatalf("class %v first appears at %d, after a class first seen at %d", cl.Rep, first, lastFirst)
		} else {
			lastFirst = first
		}
		for k := 1; k < len(cl.Members); k++ {
			if pos[cl.Members[k]] <= pos[cl.Members[k-1]] {
				t.Fatalf("class %v members out of input order", cl.Rep)
			}
		}
		seen += len(cl.Members)
	}
	if seen != len(all) {
		t.Fatalf("classes hold %d faults, input has %d", seen, len(all))
	}
}

// TestCollapsedFaultsMatchesCollapse: the flow's one-pass sample source
// returns exactly the representatives Collapse finds over AllFaults, in the
// same order, and AllFaults' length — on the buffer/inverter chain and on
// generated circuits.
func TestCollapsedFaultsMatchesCollapse(t *testing.T) {
	chain, _ := chainCircuit(t)
	circuits := []*netlist.Circuit{chain}
	for seed := int64(1); seed <= 6; seed++ {
		circuits = append(circuits, mkCircuit(t, seed))
	}
	big, err := netlist.Generate(netlist.GenConfig{Name: "big", ScanCells: 512, PIs: 8, XClusters: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	circuits = append(circuits, big)
	for _, c := range circuits {
		all := AllFaults(c)
		want := Representatives(Collapse(c, all))
		reps, n := CollapsedFaults(c)
		if n != len(all) {
			t.Fatalf("%s: counted %d faults, AllFaults has %d", c.Name, n, len(all))
		}
		if len(reps) != len(want) {
			t.Fatalf("%s: %d representatives, Collapse has %d", c.Name, len(reps), len(want))
		}
		for i := range want {
			if reps[i] != want[i] {
				t.Fatalf("%s: representative %d is %v, Collapse has %v", c.Name, i, reps[i], want[i])
			}
		}
	}
}
