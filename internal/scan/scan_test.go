package scan

import (
	"math/rand"
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

func TestResponseAtSetSlice(t *testing.T) {
	g := MustGeometry(3, 4)
	r := NewResponse(g)
	if r.CountX() != 12 {
		t.Fatalf("fresh response CountX = %d", r.CountX())
	}
	r.Set(1, 2, logic.One)
	r.Set(2, 2, logic.Zero)
	if r.At(1, 2) != logic.One || r.At(2, 2) != logic.Zero {
		t.Fatal("At/Set mismatch")
	}
	sl := r.Slice(2)
	want := logic.Vector{logic.X, logic.One, logic.Zero}
	if !sl.Equal(want) {
		t.Fatalf("Slice(2) = %v, want %v", sl, want)
	}
}

func TestResponseCloneIndependent(t *testing.T) {
	g := MustGeometry(2, 2)
	r := NewResponse(g)
	c := r.Clone()
	c.Set(0, 0, logic.One)
	if r.At(0, 0) == logic.One {
		t.Fatal("Clone shares storage")
	}
}

func TestResponseSet(t *testing.T) {
	g := MustGeometry(2, 3)
	s := NewResponseSet(g)
	r1 := NewResponse(g)
	for c := 0; c < 2; c++ {
		for p := 0; p < 3; p++ {
			r1.Set(c, p, logic.Zero)
		}
	}
	r1.Set(0, 0, logic.X)
	r2 := NewResponse(g) // all X
	if err := s.Append(r1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(r2); err != nil {
		t.Fatal(err)
	}
	if s.Patterns() != 2 {
		t.Fatalf("Patterns = %d", s.Patterns())
	}
	if s.TotalX() != 7 {
		t.Fatalf("TotalX = %d, want 7", s.TotalX())
	}
	if d := s.XDensity(); d < 0.58 || d > 0.59 {
		t.Fatalf("XDensity = %f, want 7/12", d)
	}
	bad := NewResponse(MustGeometry(3, 3))
	if err := s.Append(bad); err == nil {
		t.Fatal("Append accepted mismatched geometry")
	}
}

func TestEmptySetDensity(t *testing.T) {
	s := NewResponseSet(MustGeometry(1, 1))
	if s.XDensity() != 0 {
		t.Fatal("empty set density must be 0")
	}
}

// TestPackUnpackRoundTrip packs random response sets whose pattern counts
// sit around the 64-pattern block edges and whose cell counts are not
// multiples of 64, checks each word against the responses, including zero
// lanes past the pattern count, and unpacks the set back.
func TestPackUnpackRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := MustGeometry(7, 11)
	for _, n := range []int{0, 1, 63, 64, 65, 129} {
		set := NewResponseSet(g)
		for p := 0; p < n; p++ {
			resp := NewResponse(g)
			for c := range resp.Values {
				resp.Values[c] = logic.V(r.Intn(3))
			}
			if err := set.Append(resp); err != nil {
				t.Fatal(err)
			}
		}
		packed, err := set.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if packed.Patterns() != n || packed.Blocks() != (n+63)/64 {
			t.Fatalf("%d patterns packed as %d in %d blocks", n, packed.Patterns(), packed.Blocks())
		}
		for b := 0; b < packed.Blocks(); b++ {
			one, x := packed.Block(b)
			for c := 0; c < g.Cells(); c++ {
				for k := 0; k < 64; k++ {
					var want logic.V
					if p := 64*b + k; p < n {
						want = set.Responses[p].Values[c]
					} else if (one[c]|x[c])>>uint(k)&1 != 0 {
						t.Fatalf("n=%d block %d cell %d: lane %d past the patterns is set", n, b, c, k)
					}
					if got := logic.V(one[c]>>uint(k)&1 | (x[c]>>uint(k)&1)<<1); got != want {
						t.Fatalf("n=%d block %d cell %d lane %d: %v, want %v", n, b, c, k, got, want)
					}
				}
			}
		}
		back := packed.Unpack()
		if back.Geom != g || back.Patterns() != n {
			t.Fatalf("unpacked %v with %d patterns", back.Geom, back.Patterns())
		}
		for p, resp := range back.Responses {
			if resp.Geom != g || !resp.Values.Equal(set.Responses[p].Values) {
				t.Fatalf("n=%d pattern %d unpacked as %v, want %v", n, p, resp.Values, set.Responses[p].Values)
			}
		}
	}
	torn := NewResponseSet(g)
	torn.Responses = append(torn.Responses, Response{Geom: g, Values: make(logic.Vector, 3)})
	if _, err := torn.Pack(); err == nil {
		t.Fatal("packed a response narrower than the geometry")
	}
}
