package compactor

import (
	"math/bits"
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

// packOf packs per-pattern byte responses of the geometry through Set.
func packOf(g scan.Geometry, vals []logic.Vector) *scan.PackedResponses {
	set := scan.NewPackedResponses(g, len(vals))
	for p, v := range vals {
		for c, x := range v {
			set.Set(p, c, x)
		}
	}
	return set
}

// randomVector draws one random logic value per cell.
func randomVector(r *rand.Rand, g scan.Geometry) logic.Vector {
	v := make(logic.Vector, g.Cells())
	for c := range v {
		v[c] = logic.V(r.Intn(3))
	}
	return v
}

// slice returns the values a response presents to the compactor at shift
// cycle t: one per chain, from position t of each chain.
func slice(g scan.Geometry, v logic.Vector, t int) logic.Vector {
	out := make(logic.Vector, g.Chains)
	for c := range out {
		out[c] = v[g.CellIndex(c, t)]
	}
	return out
}

// foldAll folds every block of the set under the per-block mask lanes
// (nil masks nothing) and returns the per-pattern input words.
func foldAll(t *testing.T, tr *XORTree, set *scan.PackedResponses, lanes func(b int) []uint64) (known, xs []uint64, c FoldCounts) {
	t.Helper()
	known = make([]uint64, set.Patterns()*set.Geom.ChainLen)
	xs = make([]uint64, len(known))
	for b := 0; b < set.Blocks(); b++ {
		var mask []uint64
		if lanes != nil {
			mask = lanes(b)
		}
		if err := tr.FoldBlock(set, b, mask, known, xs, &c); err != nil {
			t.Fatal(err)
		}
	}
	return known, xs, c
}

func TestFoldCountsFoldedX(t *testing.T) {
	g := scan.MustGeometry(4, 3)
	set := scan.NewPackedResponses(g, 1)   // all Zero
	set.Set(0, g.CellIndex(0, 0), logic.X) // cycle 0, output 0
	set.Set(0, g.CellIndex(2, 0), logic.X) // cycle 0, output 0 too: folds into ONE X
	set.Set(0, g.CellIndex(1, 2), logic.X) // cycle 2, output 1
	tr := MustModulo(4, 2)
	known, xs, c := foldAll(t, tr, set, nil)
	if want := []uint64{1, 0, 2}; xs[0] != want[0] || xs[1] != want[1] || xs[2] != want[2] {
		t.Fatalf("X words %v, want %v", xs, want)
	}
	if known[0]|known[1]|known[2] != 0 {
		t.Fatalf("known words %v, want all zero", known)
	}
	if c.ResidualX != 2 {
		t.Fatalf("compacted X count = %d, want 2 (two X's fold into one output)", c.ResidualX)
	}
}

// refFold is the per-value reference for FoldBlock: pattern by pattern it
// folds a byte response of the geometry into per-cycle words, skipping the
// cells masked holds, and counts the masked X and known captures.
func refFold(tr *XORTree, g scan.Geometry, r logic.Vector, masked gf2.Vec, known, xs []uint64, c *FoldCounts) {
	for ch := 0; ch < g.Chains; ch++ {
		o := uint(tr.Group(ch))
		for cyc := 0; cyc < g.ChainLen; cyc++ {
			cell := ch*g.ChainLen + cyc
			v := r[cell]
			if masked.Len() != 0 && masked.Get(cell) {
				if v == logic.X {
					c.MaskedX++
				} else {
					c.ObservableMasked++
				}
				continue
			}
			known[cyc] ^= uint64(v&1) << o
			xs[cyc] |= uint64(v>>1) << o
		}
	}
	for cyc := range xs {
		known[cyc] &^= xs[cyc]
	}
}

// TestFoldMatchesByteReference folds random packed responses under random
// per-pattern masks and checks every pattern's words and the counts
// against refFold: MISR widths 13 to 64, chain counts that are and are not
// multiples of them, and pattern counts around the 64-lane block edges.
func TestFoldMatchesByteReference(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	var total FoldCounts
	for _, m := range []int{13, 16, 24, 32, 64} {
		for _, chains := range []int{m, 2 * m, 2*m + 5, 3*m - 1} {
			for _, n := range []int{1, 63, 64, 65, 129} {
				g := scan.MustGeometry(chains, 1+r.Intn(6))
				vals := make([]logic.Vector, n)
				masks := make([]gf2.Vec, n)
				for p := 0; p < n; p++ {
					vals[p] = randomVector(r, g)
					if p%3 != 1 {
						masks[p] = gf2.NewVec(g.Cells())
						for c := 0; c < g.Cells(); c++ {
							if r.Intn(4) == 0 {
								masks[p].Set(c)
							}
						}
					}
				}
				lanes := func(b int) []uint64 {
					w := make([]uint64, g.Cells())
					for k := 0; k < 64 && 64*b+k < n; k++ {
						masks[64*b+k].ForEach(func(c int) { w[c] |= 1 << uint(k) })
					}
					return w
				}
				tr := MustModulo(chains, m)
				known, xs, got := foldAll(t, tr, packOf(g, vals), lanes)
				var want FoldCounts
				for p, resp := range vals {
					wk := make([]uint64, g.ChainLen)
					wx := make([]uint64, g.ChainLen)
					refFold(tr, g, resp, masks[p], wk, wx, &want)
					for cyc := range wk {
						want.ResidualX += bits.OnesCount64(wx[cyc])
						i := p*g.ChainLen + cyc
						if known[i] != wk[cyc] || xs[i] != wx[cyc] {
							t.Fatalf("m=%d chains=%d n=%d pattern %d cycle %d: fold %#x/%#x, reference %#x/%#x",
								m, chains, n, p, cyc, known[i], xs[i], wk[cyc], wx[cyc])
						}
					}
				}
				if got != want {
					t.Fatalf("m=%d chains=%d n=%d: counts %+v, reference %+v", m, chains, n, got, want)
				}
				total.MaskedX += got.MaskedX
				total.ObservableMasked += got.ObservableMasked
			}
		}
	}
	if total.MaskedX == 0 || total.ObservableMasked == 0 {
		t.Fatalf("masks removed %d X's and %d known values; the mask check is vacuous", total.MaskedX, total.ObservableMasked)
	}
}

// TestFoldMatchesApply: folding responses under masks gives, cycle by
// cycle, what Apply gives for the shift slices of each response with its
// masked cells forced to 0, and nothing above the tree's outputs.
func TestFoldMatchesApply(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		chains := 1 + r.Intn(100)
		outputs := 1 + r.Intn(min(chains, 64))
		g := scan.MustGeometry(chains, 1+r.Intn(20))
		n := 1 + r.Intn(70)
		vals := make([]logic.Vector, n)
		var lanes []uint64
		if trial%4 != 0 {
			lanes = make([]uint64, g.Cells()*((n+63)/64))
		}
		masked := make([]logic.Vector, n)
		for p := 0; p < n; p++ {
			vals[p] = randomVector(r, g)
			masked[p] = vals[p].Clone()
			if lanes != nil {
				for c := 0; c < g.Cells(); c++ {
					if r.Intn(5) == 0 {
						lanes[p/64*g.Cells()+c] |= 1 << uint(p%64)
						masked[p][c] = logic.Zero
					}
				}
			}
		}
		tr := MustModulo(chains, outputs)
		var laneOf func(b int) []uint64
		if lanes != nil {
			laneOf = func(b int) []uint64 { return lanes[b*g.Cells() : (b+1)*g.Cells()] }
		}
		known, xs, _ := foldAll(t, tr, packOf(g, vals), laneOf)
		for p := 0; p < n; p++ {
			for cyc := 0; cyc < g.ChainLen; cyc++ {
				want, err := tr.Apply(slice(g, masked[p], cyc))
				if err != nil {
					t.Fatal(err)
				}
				i := p*g.ChainLen + cyc
				for o, v := range want {
					if got := logic.V(known[i]>>uint(o)&1 | (xs[i]>>uint(o)&1)<<1); got != v {
						t.Fatalf("trial %d pattern %d cycle %d output %d: fold %v, Apply %v", trial, p, cyc, o, got, v)
					}
				}
				if (known[i]|xs[i])>>uint(outputs) != 0 {
					t.Fatalf("trial %d pattern %d cycle %d: words %#x/%#x set bits above %d outputs", trial, p, cyc, known[i], xs[i], outputs)
				}
			}
		}
	}
}

func TestFoldValidation(t *testing.T) {
	tr := MustModulo(4, 2)
	g := scan.MustGeometry(4, 3)
	set := scan.NewPackedResponses(g, 2)
	words := func(n int) ([]uint64, []uint64) { return make([]uint64, n), make([]uint64, n) }
	known, xs := words(6)
	var c FoldCounts
	if err := tr.FoldBlock(set, 0, make([]uint64, 11), known, xs, &c); err == nil {
		t.Fatal("accepted mask lanes narrower than the cells")
	}
	if err := tr.FoldBlock(scan.NewPackedResponses(scan.MustGeometry(3, 3), 2), 0, nil, known, xs, &c); err == nil {
		t.Fatal("accepted responses with other chains")
	}
	if err := tr.FoldBlock(set, 1, nil, known, xs, &c); err == nil {
		t.Fatal("accepted a block past the set")
	}
	known, xs = words(5)
	if err := tr.FoldBlock(set, 0, nil, known, xs, &c); err == nil {
		t.Fatal("accepted input words short of patterns x cycles")
	}
}
