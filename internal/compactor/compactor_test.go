package compactor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xhybrid/internal/gf2"
	"xhybrid/internal/logic"
	"xhybrid/internal/scan"
)

func TestConstructorValidation(t *testing.T) {
	if _, err := NewModulo(0, 1); err == nil {
		t.Fatal("accepted zero chains")
	}
	if _, err := NewModulo(4, 0); err == nil {
		t.Fatal("accepted zero outputs")
	}
	if _, err := NewModulo(4, 8); err == nil {
		t.Fatal("accepted outputs > chains")
	}
	if _, err := NewModulo(100, 65); err == nil {
		t.Fatal("accepted more outputs than a MISR has inputs")
	}
}

func TestMustModuloPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustModulo(0, 0)
}

func TestModuloGrouping(t *testing.T) {
	tr := MustModulo(10, 4)
	if tr.Chains() != 10 || tr.Outputs() != 4 {
		t.Fatal("dims wrong")
	}
	for c := 0; c < 10; c++ {
		if tr.Group(c) != c%4 {
			t.Fatalf("Group(%d) = %d", c, tr.Group(c))
		}
	}
}

func TestApplyKnownXor(t *testing.T) {
	tr := MustModulo(4, 2)
	out, err := tr.Apply(logic.MustParseVector("1101"))
	if err != nil {
		t.Fatal(err)
	}
	// output 0 = chains 0,2 -> 1^0 = 1; output 1 = chains 1,3 -> 1^1 = 0.
	want := logic.MustParseVector("10")
	if !out.Equal(want) {
		t.Fatalf("Apply = %v, want %v", out, want)
	}
}

func TestApplyXDominates(t *testing.T) {
	tr := MustModulo(4, 2)
	out, err := tr.Apply(logic.MustParseVector("1x01"))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != logic.One || out[1] != logic.X {
		t.Fatalf("Apply = %v", out)
	}
	if _, err := tr.Apply(logic.MustParseVector("111")); err == nil {
		t.Fatal("accepted wrong width")
	}
}

// Property: with no X's, compaction equals the per-group Boolean XOR for
// any random assignment, and the identity tree is a no-op.
func TestApplyMatchesBooleanXor(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		chains := 1 + r.Intn(24)
		outputs := 1 + r.Intn(chains)
		tr := MustModulo(chains, outputs)
		slice := make(logic.Vector, chains)
		want := make([]int, outputs)
		for c := range slice {
			b := r.Intn(2)
			slice[c] = logic.FromBit(b)
			want[tr.Group(c)] ^= b
		}
		out, err := tr.Apply(slice)
		if err != nil {
			return false
		}
		for g, b := range want {
			if out[g] != logic.FromBit(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityTree(t *testing.T) {
	tr := MustModulo(5, 5)
	in := logic.MustParseVector("10x01")
	out, err := tr.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(in) {
		t.Fatalf("identity tree altered slice: %v", out)
	}
}

func TestCompactResponseAndXCount(t *testing.T) {
	g := scan.MustGeometry(4, 3)
	r := scan.NewResponse(g)
	for c := 0; c < 4; c++ {
		for p := 0; p < 3; p++ {
			r.Set(c, p, logic.Zero)
		}
	}
	r.Set(0, 0, logic.X) // cycle 0, output 0
	r.Set(2, 0, logic.X) // cycle 0, output 0 too: folds into ONE X
	r.Set(1, 2, logic.X) // cycle 2, output 1
	tr := MustModulo(4, 2)
	slices, err := tr.CompactResponse(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(slices) != 3 || len(slices[0]) != 2 {
		t.Fatal("slice dims wrong")
	}
	n := 0
	for _, s := range slices {
		n += s.CountX()
	}
	if n != 2 {
		t.Fatalf("compacted X count = %d, want 2 (two X's fold into one output)", n)
	}
	// Geometry mismatch errors.
	if _, err := tr.CompactResponse(scan.NewResponse(scan.MustGeometry(3, 3))); err != nil {
		// expected
	} else {
		t.Fatal("accepted mismatched response")
	}
}

// TestFoldMatchesApply: folding a response under a mask gives, cycle by
// cycle, what Apply gives for the shift slices of the response with its
// masked cells forced to 0, and nothing above the tree's outputs.
func TestFoldMatchesApply(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		chains := 1 + r.Intn(100)
		outputs := 1 + r.Intn(min(chains, 64))
		g := scan.MustGeometry(chains, 1+r.Intn(20))
		resp := scan.NewResponse(g)
		for c := range resp.Values {
			resp.Values[c] = logic.V(r.Intn(3))
		}
		var mask gf2.Vec
		if trial%4 != 0 {
			mask = gf2.NewVec(g.Cells())
			for c := 0; c < g.Cells(); c++ {
				if r.Intn(5) == 0 {
					mask.Set(c)
				}
			}
		}
		tr := MustModulo(chains, outputs)
		known := make([]uint64, g.ChainLen)
		xs := make([]uint64, g.ChainLen)
		if err := tr.Fold(resp, mask, known, xs); err != nil {
			t.Fatal(err)
		}
		masked := resp.Clone()
		mask.ForEach(func(c int) { masked.Values[c] = logic.Zero })
		for cyc := 0; cyc < g.ChainLen; cyc++ {
			want, err := tr.Apply(masked.Slice(cyc))
			if err != nil {
				t.Fatal(err)
			}
			for o, v := range want {
				if got := logic.V(known[cyc]>>uint(o)&1 | (xs[cyc]>>uint(o)&1)<<1); got != v {
					t.Fatalf("trial %d cycle %d output %d: fold %v, Apply %v", trial, cyc, o, got, v)
				}
			}
			if (known[cyc]|xs[cyc])>>uint(outputs) != 0 {
				t.Fatalf("trial %d cycle %d: planes %#x/%#x set bits above %d outputs", trial, cyc, known[cyc], xs[cyc], outputs)
			}
		}
	}
}

func TestFoldValidation(t *testing.T) {
	tr := MustModulo(4, 2)
	resp := scan.NewResponse(scan.MustGeometry(4, 3))
	planes := func(n int) ([]uint64, []uint64) { return make([]uint64, n), make([]uint64, n) }
	known, xs := planes(3)
	if err := tr.Fold(resp, gf2.NewVec(11), known, xs); err == nil {
		t.Fatal("accepted a mask narrower than the response")
	}
	if err := tr.Fold(scan.NewResponse(scan.MustGeometry(3, 3)), gf2.Vec{}, known, xs); err == nil {
		t.Fatal("accepted a response with other chains")
	}
	known, xs = planes(2)
	if err := tr.Fold(resp, gf2.Vec{}, known, xs); err == nil {
		t.Fatal("accepted planes shorter than the chains")
	}
}
