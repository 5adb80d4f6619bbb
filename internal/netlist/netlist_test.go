package netlist

import (
	"strings"
	"testing"
)

// buildToy returns a tiny sequential circuit:
//
//	pi0, pi1 inputs; s0, s1 scan flops;
//	g = AND(pi0, s0); h = XOR(g, s1); s0.d = h, s1.d = g; PO = h.
func buildToy(t *testing.T) *Circuit {
	b := NewBuilder("toy")
	pi0 := b.Input("pi0")
	_ = b.Input("pi1")
	s0 := b.ScanDFFDeferred()
	s1 := b.ScanDFFDeferred()
	g := b.Named("g", And, pi0, s0)
	h := b.Named("h", Xor, g, s1)
	b.SetFanin(s0, h)
	b.SetFanin(s1, g)
	b.PO(h)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuilderAndValidate(t *testing.T) {
	c := buildToy(t)
	if c.NumGates() != 6 {
		t.Fatalf("NumGates = %d, want 6", c.NumGates())
	}
	st := c.Stats()
	if st.PIs != 2 || st.ScanCells != 2 || st.POs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if c.Depth() != 2 {
		t.Fatalf("Depth = %d, want 2", c.Depth())
	}
	// Eval order must respect fanin dependencies.
	pos := make(map[int]int)
	for i, id := range c.EvalOrder() {
		pos[id] = i
	}
	for _, id := range c.EvalOrder() {
		for _, f := range c.Gates[id].Fanin {
			if fp, ok := pos[f]; ok && fp > pos[id] {
				t.Fatalf("node %d evaluated before fanin %d", id, f)
			}
		}
	}
}

func TestCombinationalCycleRejected(t *testing.T) {
	b := NewBuilder("cyc")
	pi := b.Input("pi")
	g1 := b.Gate(And, pi, pi) // placeholder fanin, patched to a cycle
	g2 := b.Gate(Or, g1, pi)
	b.SetFanin(g1, g2, pi)
	if _, err := b.Build(); err == nil {
		t.Fatal("combinational cycle accepted")
	}
	if !strings.Contains(strings.ToLower(errOf(b)), "cycle") {
		t.Fatalf("error does not mention cycle: %v", errOf(b))
	}
}

func errOf(b *Builder) string {
	_, err := b.Build()
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestSequentialLoopAllowed(t *testing.T) {
	// A flop whose next state depends on its own output is fine.
	b := NewBuilder("loop")
	s := b.ScanDFFDeferred()
	inv := b.Gate(Not, s)
	b.SetFanin(s, inv)
	if _, err := b.Build(); err != nil {
		t.Fatalf("sequential loop rejected: %v", err)
	}
}

func TestArityValidation(t *testing.T) {
	b := NewBuilder("bad")
	pi := b.Input("pi")
	b.Gate(Not, pi, pi) // NOT with 2 fanins
	if _, err := b.Build(); err == nil {
		t.Fatal("bad arity accepted")
	}
	b2 := NewBuilder("bad2")
	b2.Gate(And) // AND with no fanins
	if _, err := b2.Build(); err == nil {
		t.Fatal("empty AND accepted")
	}
	b3 := NewBuilder("bad3")
	b3.Gate(Input) // Input via Gate
	if _, err := b3.Build(); err == nil {
		t.Fatal("Input via Gate accepted")
	}
	b4 := NewBuilder("bad4")
	b4.SetFanin(99)
	if _, err := b4.Build(); err == nil {
		t.Fatal("SetFanin on bogus id accepted")
	}
}

func TestInvalidFaninRange(t *testing.T) {
	c := &Circuit{Gates: []Gate{{Type: Buf, Fanin: []int{5}}}}
	if err := c.Validate(); err == nil {
		t.Fatal("out-of-range fanin accepted")
	}
}

func TestGateTypeString(t *testing.T) {
	if And.String() != "AND" || NonScanDFF.String() != "NSDFF" {
		t.Fatal("gate names wrong")
	}
	if GateType(99).String() == "" {
		t.Fatal("unknown type renders empty")
	}
}

func TestGenerate(t *testing.T) {
	c, err := Generate(GenConfig{
		Name:      "gen1",
		ScanCells: 64,
		PIs:       8,
		XClusters: 4,
		XFanout:   5,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ScanCells != 64 || st.PIs != 8 {
		t.Fatalf("stats = %+v", st)
	}
	if st.NonScan != 4 {
		t.Fatalf("NonScan = %d, want 4 clusters", st.NonScan)
	}
	if st.XSources < 4 {
		t.Fatalf("XSources = %d", st.XSources)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Name: "g", ScanCells: 32, PIs: 4, XClusters: 2, Seed: 7}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumGates() != b.NumGates() {
		t.Fatal("same seed, different circuits")
	}
	for i := range a.Gates {
		if a.Gates[i].Type != b.Gates[i].Type {
			t.Fatal("same seed, different gates")
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{ScanCells: 1, PIs: 1}); err == nil {
		t.Fatal("accepted 1 scan cell")
	}
	if _, err := Generate(GenConfig{ScanCells: 8, PIs: 0}); err == nil {
		t.Fatal("accepted 0 PIs")
	}
	if _, err := Generate(GenConfig{ScanCells: 8, PIs: 1, XClusters: -1}); err == nil {
		t.Fatal("accepted a negative cluster count")
	}
}
