package scan

import (
	"fmt"
	"testing"
	"testing/quick"

	"xhybrid/internal/logic"
)

func TestGeometryValidate(t *testing.T) {
	if _, err := NewGeometry(0, 5); err == nil {
		t.Fatal("accepted zero chains")
	}
	if _, err := NewGeometry(5, 0); err == nil {
		t.Fatal("accepted zero chain length")
	}
	g, err := NewGeometry(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cells() != 15 {
		t.Fatalf("Cells = %d", g.Cells())
	}
	if g.String() == "" {
		t.Fatal("empty String")
	}
}

func TestMustGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustGeometry(-1, 1)
}

func TestCellIndexRoundTrip(t *testing.T) {
	g := MustGeometry(7, 11)
	f := func(chainRaw, posRaw uint8) bool {
		chain := int(chainRaw) % g.Chains
		pos := int(posRaw) % g.ChainLen
		cell := g.CellIndex(chain, pos)
		c2, p2 := g.CellCoord(cell)
		return c2 == chain && p2 == pos && cell >= 0 && cell < g.Cells()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCellIndexPanics(t *testing.T) {
	g := MustGeometry(2, 3)
	for _, c := range []struct{ chain, pos int }{{-1, 0}, {2, 0}, {0, -1}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("CellIndex(%d,%d) did not panic", c.chain, c.pos)
				}
			}()
			g.CellIndex(c.chain, c.pos)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("CellCoord out of range did not panic")
			}
		}()
		g.CellCoord(6)
	}()
}

// TestPackedAtSet writes Zero, One and X through Set at the lanes around
// the 64-pattern block edges of a set whose cell count is not a multiple
// of 64, reads each back through At, and checks that every other lane of
// both planes is untouched; out-of-range patterns and cells panic.
func TestPackedAtSet(t *testing.T) {
	g := MustGeometry(7, 11)
	const n = 130
	s := NewPackedResponses(g, n)
	if s.Patterns() != n || s.Blocks() != 3 || s.BlockPatterns(2) != 2 {
		t.Fatalf("%d patterns in %d blocks, last holds %d", s.Patterns(), s.Blocks(), s.BlockPatterns(2))
	}
	want := make([]logic.V, n*g.Cells()) // all Zero, like a fresh set
	check := func(step string) {
		t.Helper()
		for p := 0; p < n; p++ {
			for c := 0; c < g.Cells(); c++ {
				if got := s.At(p, c); got != want[p*g.Cells()+c] {
					t.Fatalf("%s: pattern %d cell %d = %v, want %v", step, p, c, got, want[p*g.Cells()+c])
				}
			}
		}
		for b := 0; b < s.Blocks(); b++ {
			one, x := s.Block(b)
			for c := range one {
				if one[c]&x[c] != 0 {
					t.Fatalf("%s: block %d cell %d is One and X in lanes %#x", step, b, c, one[c]&x[c])
				}
				if past := ^uint64(0) << uint(s.BlockPatterns(b)) & (one[c] | x[c]); past != 0 {
					t.Fatalf("%s: block %d cell %d sets lanes %#x past the patterns", step, b, c, past)
				}
			}
		}
	}
	for _, p := range []int{0, 1, 62, 63, 64, 65, 127, 128, 129} {
		for _, c := range []int{0, 5, g.Cells() - 1} {
			for _, v := range []logic.V{logic.X, logic.One, logic.Zero, logic.One, logic.X} {
				s.Set(p, c, v)
				want[p*g.Cells()+c] = v
				check(fmt.Sprintf("Set(%d, %d, %v)", p, c, v))
			}
		}
	}
	for _, bad := range [][2]int{{-1, 0}, {n, 0}, {0, -1}, {0, g.Cells()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			s.At(bad[0], bad[1])
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Set(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			s.Set(bad[0], bad[1], logic.One)
		}()
	}
}
