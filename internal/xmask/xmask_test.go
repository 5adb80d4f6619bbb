package xmask

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xhybrid/internal/gf2"
	"xhybrid/internal/scan"
	"xhybrid/internal/xmap"
)

// fig4 builds the paper's Figure 4 X-map (8 patterns, 5 chains x 3 cells).
func fig4() *xmap.XMap {
	m := xmap.New(8, 15)
	add := func(chain, pos int, patterns ...int) {
		cell := (chain-1)*3 + (pos - 1)
		for _, p := range patterns {
			m.Add(p-1, cell)
		}
	}
	add(1, 1, 1, 4, 5, 6)
	add(2, 1, 1, 4, 5, 6)
	add(3, 1, 1, 4, 5, 6)
	add(2, 3, 2, 3)
	add(4, 3, 1, 2, 3, 4, 5, 7, 8)
	add(5, 2, 1, 2, 4, 5, 7, 8)
	add(5, 3, 6)
	return m
}

func part(patterns ...int) gf2.Vec {
	v := gf2.NewVec(8)
	for _, p := range patterns {
		v.Set(p - 1)
	}
	return v
}

// Figure 6: Partition 2 = {2,3,7,8} masks only SC4[3] (4 X's); SC5[2] must
// NOT be masked (it has a non-X value under P3).
func TestFigure6Partition2Mask(t *testing.T) {
	m := fig4()
	mask, maskedX := PartitionMask(m, part(2, 3, 7, 8))
	sc4c3 := 3*3 + 2 // chain 4, pos 3, 0-based
	sc5c2 := 4*3 + 1
	if !mask.Masks(sc4c3) {
		t.Fatal("SC4[3] not masked in Partition 2")
	}
	if mask.Masks(sc5c2) {
		t.Fatal("SC5[2] masked in Partition 2 — would lose a non-X value from P3")
	}
	if maskedX != 4 {
		t.Fatalf("maskedX = %d, want 4", maskedX)
	}
	if mask.Cells.PopCount() != 1 {
		t.Fatalf("mask covers %d cells, want 1", mask.Cells.PopCount())
	}
	if err := VerifySafe(m, part(2, 3, 7, 8), mask); err != nil {
		t.Fatal(err)
	}
}

// Figure 6 full plan: partitions {2,3,7,8}, {1,4,5}, {6} mask 23 of 28 X's
// with 45 control bits versus 120 conventional.
func TestFigure6FullPlan(t *testing.T) {
	m := fig4()
	parts := []gf2.Vec{part(2, 3, 7, 8), part(1, 4, 5), part(6)}
	totalMasked, totalBits := 0, 0
	for _, p := range parts {
		mask, mx := PartitionMask(m, p)
		totalMasked += mx
		totalBits += mask.ControlBits()
		if err := VerifySafe(m, p, mask); err != nil {
			t.Fatal(err)
		}
	}
	if totalMasked != 23 {
		t.Fatalf("masked %d X's, want 23 (paper)", totalMasked)
	}
	if residual := m.TotalX() - totalMasked; residual != 5 {
		t.Fatalf("residual %d X's, want 5 (paper)", residual)
	}
	if totalBits != 45 {
		t.Fatalf("mask control bits = %d, want 45 (paper)", totalBits)
	}
	g := scan.MustGeometry(5, 3)
	if conv := ControlBitsPerPattern(g, 8); conv != 120 {
		t.Fatalf("conventional control bits = %d, want 120 (paper)", conv)
	}
}

func TestVerifySafeRejectsLossyMask(t *testing.T) {
	m := fig4()
	p := part(2, 3, 7, 8)
	mask := NewMask(15)
	mask.Cells.Set(4*3 + 1) // SC5[2]: X under {2,7,8} but non-X under 3
	if err := VerifySafe(m, p, mask); err == nil {
		t.Fatal("VerifySafe accepted a mask that loses observability")
	}
}

func TestThresholdMaskLossAccounting(t *testing.T) {
	m := fig4()
	p := part(2, 3, 7, 8)
	// Mask anything with >= 3/4 in-partition X's: catches SC4[3] (4) and
	// SC5[2] (3, losing one observable value).
	mask, maskedX, lost := ThresholdMask(m, p, 0.75)
	if !mask.Masks(3*3+2) || !mask.Masks(4*3+1) {
		t.Fatal("threshold mask missed expected cells")
	}
	if maskedX != 7 || lost != 1 {
		t.Fatalf("maskedX=%d lost=%d, want 7,1", maskedX, lost)
	}
	// With frac=1.0 the threshold mask degenerates to the safe mask.
	tm, tx, tl := ThresholdMask(m, p, 1.0)
	sm, sx := PartitionMask(m, p)
	if !tm.Cells.Equal(sm.Cells) || tx != sx || tl != 0 {
		t.Fatal("frac=1.0 threshold mask differs from safe partition mask")
	}
}

func TestConventionalPerPattern(t *testing.T) {
	m := fig4()
	plan := ConventionalPerPattern(m)
	if plan.ControlBits != 120 {
		t.Fatalf("ControlBits = %d, want 120", plan.ControlBits)
	}
	if plan.MaskedX != 28 {
		t.Fatalf("MaskedX = %d, want 28 (all X's)", plan.MaskedX)
	}
	// Pattern 1 (0-based 0) has X's at SC1[1], SC2[1], SC3[1], SC4[3], SC5[2].
	p0 := plan.Masks[0]
	if p0.Cells.PopCount() != 5 {
		t.Fatalf("pattern 1 mask covers %d cells, want 5", p0.Cells.PopCount())
	}
	for _, cell := range []int{0, 3, 6, 11, 13} {
		if !p0.Masks(cell) {
			t.Fatalf("pattern 1 mask missing cell %d", cell)
		}
	}
}

// Property: PartitionMask never loses observability and removes exactly
// maskedCells * |partition| X's.
func TestPartitionMaskSafetyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		np, nc := 1+r.Intn(16), 1+r.Intn(30)
		m := xmap.New(np, nc)
		for i := 0; i < r.Intn(150); i++ {
			m.Add(r.Intn(np), r.Intn(nc))
		}
		p := gf2.NewVec(np)
		for i := 0; i < np; i++ {
			if r.Intn(2) == 1 {
				p.Set(i)
			}
		}
		mask, maskedX := PartitionMask(m, p)
		if VerifySafe(m, p, mask) != nil {
			return false
		}
		return maskedX == mask.Cells.PopCount()*p.PopCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestChainMask(t *testing.T) {
	// 2 chains x 2 cells, 3 patterns; chain 0 fully X everywhere, chain 1
	// only partially.
	m := xmap.New(3, 4)
	for p := 0; p < 3; p++ {
		m.Add(p, 0)
		m.Add(p, 1)
	}
	m.Add(0, 2)
	g := scan.MustGeometry(2, 2)
	part := gf2.NewVec(3)
	part.SetAll()
	chains, maskedX, bits := ChainMask(m, g, part)
	if len(chains) != 1 || chains[0] != 0 {
		t.Fatalf("masked chains = %v, want [0]", chains)
	}
	if maskedX != 6 {
		t.Fatalf("maskedX = %d, want 6", maskedX)
	}
	if bits != 2 {
		t.Fatalf("controlBits = %d, want 2 (one per chain)", bits)
	}
	// Per-cell masking on the same partition removes at least as many X's.
	_, cellMaskedX := PartitionMask(m, part)
	if cellMaskedX < maskedX {
		t.Fatalf("cell masking removed fewer X's (%d) than chain masking (%d)", cellMaskedX, maskedX)
	}
	// Empty partition masks nothing but still costs the control word.
	none, mx, bits2 := ChainMask(m, g, gf2.NewVec(3))
	if none != nil || mx != 0 || bits2 != 2 {
		t.Fatal("empty partition chain mask wrong")
	}
}

func TestPartitionMaskEmptyPartition(t *testing.T) {
	m := fig4()
	mask, mx := PartitionMask(m, gf2.NewVec(8))
	if mx != 0 || mask.Cells.PopCount() != 0 {
		t.Fatal("empty partition must mask nothing")
	}
}
