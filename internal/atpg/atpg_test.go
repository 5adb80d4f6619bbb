package atpg

import (
	"testing"

	"xhybrid/internal/logic"
)

func TestLFSRPeriodSmall(t *testing.T) {
	l := MustNewLFSR(8, 1)
	seen := map[uint64]bool{}
	start := l.State()
	period := 0
	for {
		l.NextBit()
		period++
		if l.State() == start {
			break
		}
		if seen[l.State()] {
			t.Fatal("entered a sub-cycle not containing the start state")
		}
		seen[l.State()] = true
		if period > 1<<9 {
			t.Fatal("period too long")
		}
	}
	if period != 255 {
		t.Fatalf("period = %d, want 255 (primitive degree-8 polynomial)", period)
	}
}

func TestSeedZeroMapsToOne(t *testing.T) {
	l := MustNewLFSR(8, 0)
	if l.State() == 0 {
		t.Fatal("LFSR locked up at zero")
	}
}

func TestMustNewLFSRPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNewLFSR(0, 1)
}

func TestBitBalance(t *testing.T) {
	l := MustNewLFSR(32, 0xDEADBEEF)
	ones := 0
	n := 20000
	for i := 0; i < n; i++ {
		ones += l.NextBit()
	}
	if ones < n*45/100 || ones > n*55/100 {
		t.Fatalf("ones = %d of %d; LFSR badly biased", ones, n)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(5).Patterns(4, 16)
	b := NewGenerator(5).Patterns(4, 16)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("same seed, different patterns")
		}
	}
	c := NewGenerator(6).Patterns(4, 16)
	same := true
	for i := range a {
		if !a[i].Equal(c[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds, identical patterns")
	}
}

func TestPatternsFullySpecified(t *testing.T) {
	for _, v := range NewGenerator(1).Patterns(8, 33) {
		if len(v) != 33 {
			t.Fatalf("width %d", len(v))
		}
		if v.CountX() != 0 {
			t.Fatal("pattern contains X")
		}
	}
}

func TestWeighted(t *testing.T) {
	g := NewGenerator(9)
	if err := g.SetWeight(1, 8); err != nil {
		t.Fatal(err)
	}
	ones := 0
	n := 4000
	for _, v := range g.Pattern(n) {
		if v == logic.One {
			ones++
		}
	}
	frac := float64(ones) / float64(n)
	if frac < 0.07 || frac > 0.19 {
		t.Fatalf("weighted ones fraction = %f, want ~0.125", frac)
	}
	if err := g.SetWeight(3, 2); err == nil {
		t.Fatal("accepted weight > 1")
	}
	if err := g.SetWeight(-1, 2); err == nil {
		t.Fatal("accepted negative weight")
	}
}

func TestGenerateStimuli(t *testing.T) {
	s := GenerateStimuli(10, 20, 4, 3)
	if len(s.Loads) != 10 || len(s.PIs) != 10 {
		t.Fatal("wrong counts")
	}
	if len(s.Loads[0]) != 20 || len(s.PIs[0]) != 4 {
		t.Fatal("wrong widths")
	}
}
