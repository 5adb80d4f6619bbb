package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"xhybrid/internal/gf2"
	"xhybrid/internal/misr"
	"xhybrid/internal/scan"
	"xhybrid/internal/xcancel"
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

func fig4Params(q int) Params {
	return Params{
		Geom:   scan.MustGeometry(5, 3),
		Cancel: xcancel.Config{MISR: misr.MustStandard(10), Q: q},
	}
}

func patterns(ps ...int) gf2.Vec {
	v := gf2.NewVec(8)
	for _, p := range ps {
		v.Set(p - 1)
	}
	return v
}

// Figure 5 with the Section 4 cost walk-through at m=10, q=2: two accepted
// rounds, final partitions {1,4,5}, {6}, {2,3,7,8}, costs 60 then 58.
func TestFigure5PartitionTrace(t *testing.T) {
	res, err := Run(fig4(), fig4Params(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2: %+v", len(res.Rounds), res.Rounds)
	}
	r1 := res.Rounds[0]
	// Round 1 splits on SC1[1] (cell 0), from the group of 3 cells with 4 X's.
	if r1.SplitCell != 0 || r1.GroupSize != 3 || r1.GroupCount != 4 {
		t.Fatalf("round 1 = %+v, want split on cell 0 from group size 3 count 4", r1)
	}
	if r1.CostAfter != 60 {
		t.Fatalf("round 1 cost = %d, want 60 (paper: 3*5*2 + 10*2*12/8)", r1.CostAfter)
	}
	if !r1.Accepted {
		t.Fatal("round 1 rejected")
	}
	r2 := res.Rounds[1]
	// Round 2 splits Partition 1 on SC4[3] (cell 11), group of 2 cells, 3 X's.
	if r2.SplitCell != 11 || r2.GroupSize != 2 || r2.GroupCount != 3 {
		t.Fatalf("round 2 = %+v, want split on cell 11 from group size 2 count 3", r2)
	}
	if r2.CostAfter != 58 {
		t.Fatalf("round 2 cost = %d, want 58 (paper: 57.5 -> 58)", r2.CostAfter)
	}
	if !r2.Accepted {
		t.Fatal("round 2 rejected")
	}

	if len(res.Partitions) != 3 {
		t.Fatalf("final partitions = %d, want 3", len(res.Partitions))
	}
	want := []gf2.Vec{patterns(1, 4, 5), patterns(6), patterns(2, 3, 7, 8)}
	for i, w := range want {
		if !res.Partitions[i].Patterns.Equal(w) {
			t.Fatalf("partition %d = %v, want %v", i, res.Partitions[i].Patterns, w)
		}
	}
	if res.MaskedX != 23 || res.ResidualX != 5 {
		t.Fatalf("masked/residual = %d/%d, want 23/5 (paper)", res.MaskedX, res.ResidualX)
	}
	if res.MaskBits != 45 {
		t.Fatalf("mask bits = %d, want 45 (paper: 120 -> 45)", res.MaskBits)
	}
	if res.TotalBits != 58 {
		t.Fatalf("total bits = %d, want 58", res.TotalBits)
	}
}

// Section 4, m=10 q=1: the cost function stops at round 1 (44 bits; round 2
// would cost 51).
func TestCostFunctionStopsAtRoundOne(t *testing.T) {
	res, err := Run(fig4(), fig4Params(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2 (one accepted + one rejected)", len(res.Rounds))
	}
	if !res.Rounds[0].Accepted || res.Rounds[0].CostAfter != 44 {
		t.Fatalf("round 1 = %+v, want accepted at 44 (paper: 43.3 -> 44)", res.Rounds[0])
	}
	if res.Rounds[1].Accepted || res.Rounds[1].CostAfter != 51 {
		t.Fatalf("round 2 = %+v, want rejected at 51 (paper: 50.5 -> 51)", res.Rounds[1])
	}
	if len(res.Partitions) != 2 {
		t.Fatalf("final partitions = %d, want 2", len(res.Partitions))
	}
	want := []gf2.Vec{patterns(1, 4, 5, 6), patterns(2, 3, 7, 8)}
	for i, w := range want {
		if !res.Partitions[i].Patterns.Equal(w) {
			t.Fatalf("partition %d = %v, want %v", i, res.Partitions[i].Patterns, w)
		}
	}
	if res.TotalBits != 44 {
		t.Fatalf("total bits = %d, want 44", res.TotalBits)
	}
	// Round 1 removes 16 X's and leaks 12 (paper).
	if res.MaskedX != 16 || res.ResidualX != 12 {
		t.Fatalf("masked/residual = %d/%d, want 16/12", res.MaskedX, res.ResidualX)
	}
}

// The random-member variant must still find the same partitions for Figure 4
// because all three candidate cells of the winning group share the same
// pattern signature.
func TestPaperRandomStrategySameResult(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		p := fig4Params(2)
		p.Strategy = StrategyPaperRandom
		p.Seed = seed
		res, err := Run(fig4(), p)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalBits != 58 || len(res.Partitions) != 3 {
			t.Fatalf("seed %d: total bits %d partitions %d", seed, res.TotalBits, len(res.Partitions))
		}
	}
}

// Greedy-cost must never end with a worse total than the paper heuristic.
func TestGreedyAtLeastAsGood(t *testing.T) {
	f := func(seed int64) bool {
		m, geom := randMap(seed)
		base := Params{Geom: geom, Cancel: xcancel.Config{MISR: misr.MustStandard(10), Q: 2}}
		paper, err := Run(m, base)
		if err != nil {
			return false
		}
		g := base
		g.Strategy = StrategyGreedyCost
		greedy, err := Run(m, g)
		if err != nil {
			return false
		}
		return greedy.TotalBits <= paper.TotalBits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func randMap(seed int64) (*xmap.XMap, scan.Geometry) {
	r := rand.New(rand.NewSource(seed))
	chains, chainLen := 2+r.Intn(6), 2+r.Intn(6)
	geom := scan.MustGeometry(chains, chainLen)
	np := 2 + r.Intn(20)
	m := xmap.New(np, geom.Cells())
	// A couple of correlated clusters plus background noise.
	for g := 0; g < 1+r.Intn(3); g++ {
		var cells, pats []int
		for i := 0; i < 1+r.Intn(4); i++ {
			cells = append(cells, r.Intn(geom.Cells()))
		}
		for p := 0; p < 1+r.Intn(np); p++ {
			if r.Intn(2) == 1 {
				pats = append(pats, p)
			}
		}
		for _, c := range cells {
			for _, p := range pats {
				m.Add(p, c)
			}
		}
	}
	for i := 0; i < r.Intn(30); i++ {
		m.Add(r.Intn(np), r.Intn(geom.Cells()))
	}
	return m, geom
}

// Core invariants for any input and strategy.
func TestPartitionInvariants(t *testing.T) {
	strategies := []Strategy{StrategyPaper, StrategyPaperRandom, StrategyGreedyCost}
	f := func(seed int64) bool {
		m, geom := randMap(seed)
		for _, s := range strategies {
			p := Params{
				Geom:     geom,
				Cancel:   xcancel.Config{MISR: misr.MustStandard(12), Q: 3},
				Strategy: s,
				Seed:     seed,
			}
			res, err := Run(m, p)
			if err != nil {
				return false
			}
			// Partitions form a disjoint cover of all patterns.
			cover := gf2.NewVec(m.Patterns())
			total := 0
			for _, part := range res.Partitions {
				if part.Patterns.PopCountAnd(cover) != 0 {
					return false // overlap
				}
				cover.Or(part.Patterns)
				total += part.Size()
				// Mask accounting must match the partition.
				if part.MaskedX != part.Mask.Cells.PopCount()*part.Size() {
					return false
				}
			}
			if total != m.Patterns() || cover.PopCount() != m.Patterns() {
				return false
			}
			// X accounting.
			if res.MaskedX+res.ResidualX != res.TotalX || res.TotalX != m.TotalX() {
				return false
			}
			if res.ResidualX < 0 {
				return false
			}
			// Accepted rounds strictly decrease cost.
			for _, r := range res.Rounds {
				if r.Accepted && r.CostAfter >= r.CostBefore {
					return false
				}
			}
			// Residual map agrees with the accounting.
			if ResidualMap(m, res.Partitions).TotalX() != res.ResidualX {
				return false
			}
			// Final cost never exceeds the no-partitioning upper bound of a
			// single shared mask.
			if len(res.Rounds) > 0 && res.Rounds[0].Accepted && res.TotalBits > res.Rounds[0].CostBefore {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	m := fig4()
	p := fig4Params(2)
	p.Geom = scan.MustGeometry(4, 3) // 12 cells != 15
	if _, err := Run(m, p); err == nil {
		t.Fatal("accepted mismatched geometry")
	}
	p = fig4Params(2)
	p.Strategy = namelessStrategy{}
	if _, err := Run(m, p); err == nil {
		t.Fatal("accepted strategy with empty name")
	}
	p = fig4Params(2)
	p.MaxRounds = -1
	if _, err := Run(m, p); err == nil {
		t.Fatal("accepted negative MaxRounds")
	}
	if _, err := Run(xmap.New(0, 15), fig4Params(2)); err == nil {
		t.Fatal("accepted empty pattern set")
	}
}

func TestMaxRounds(t *testing.T) {
	p := fig4Params(2)
	p.MaxRounds = 1
	res, err := Run(fig4(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Partitions) != 2 {
		t.Fatalf("partitions = %d, want 2 with MaxRounds=1", len(res.Partitions))
	}
}

func TestNoXMapStillWorks(t *testing.T) {
	m := xmap.New(4, 15) // no X's at all
	res, err := Run(m, fig4Params(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Partitions) != 1 || res.TotalX != 0 || res.CancelBits != 0 {
		t.Fatalf("unexpected result on X-free map: %+v", res)
	}
	// One (useless) shared mask is still charged under paper accounting.
	if res.MaskBits != 15 {
		t.Fatalf("MaskBits = %d, want 15", res.MaskBits)
	}
}

// Cheap (compressed) mask delivery shifts the cost optimum toward more
// partitions: the m=10 q=1 configuration that stops at round 1 under the
// paper's raw mask price continues to three partitions when a mask image
// costs one bit.
func TestCompressedMaskPriceChangesOptimum(t *testing.T) {
	raw, err := Run(fig4(), fig4Params(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Partitions) != 2 {
		t.Fatalf("raw partitions = %d, want 2", len(raw.Partitions))
	}
	p := fig4Params(1)
	p.MaskBitsPerPartition = 1
	cheap, err := Run(fig4(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cheap.Partitions) != 3 {
		t.Fatalf("cheap-mask partitions = %d, want 3", len(cheap.Partitions))
	}
	// Round 2: masks 3*1 + canceling ceil(10*5/9) = 3 + 6 = 9.
	if cheap.TotalBits != 9 {
		t.Fatalf("cheap-mask total = %d, want 9", cheap.TotalBits)
	}
	if cheap.MaskedX <= raw.MaskedX {
		t.Fatal("cheaper masks should mask at least as many X's")
	}
	// Validation.
	p.MaskBitsPerPartition = -1
	if _, err := Run(fig4(), p); err == nil {
		t.Fatal("accepted negative mask price")
	}
}

func TestEvaluateComparison(t *testing.T) {
	c, err := Evaluate(fig4(), fig4Params(2))
	if err != nil {
		t.Fatal(err)
	}
	if c.MaskOnlyBits != 120 {
		t.Fatalf("MaskOnlyBits = %d, want 120", c.MaskOnlyBits)
	}
	// Canceling only: ceil(10*2*28/8) = 70.
	if c.CancelOnlyBits != 70 {
		t.Fatalf("CancelOnlyBits = %d, want 70", c.CancelOnlyBits)
	}
	if c.HybridBits != 58 {
		t.Fatalf("HybridBits = %d, want 58", c.HybridBits)
	}
	if c.ImprovementOverMask <= 2.0 || c.ImprovementOverCancel <= 1.0 {
		t.Fatalf("improvements = %f / %f", c.ImprovementOverMask, c.ImprovementOverCancel)
	}
	if c.TestTimeHybrid >= c.TestTimeCancelOnly {
		t.Fatalf("hybrid test time %f not below canceling-only %f", c.TestTimeHybrid, c.TestTimeCancelOnly)
	}
	if c.TestTimeImprovement <= 1.0 {
		t.Fatalf("TestTimeImprovement = %f", c.TestTimeImprovement)
	}
}

// namelessStrategy fails Params.Validate: every strategy must report a name.
type namelessStrategy struct{}

func (namelessStrategy) Name() string                 { return "" }
func (namelessStrategy) Select(sc *Selection) []Split { return nil }

func TestStrategyString(t *testing.T) {
	if StrategyPaper.Name() != "paper" || StrategyPaperRandom.Name() != "paper-random" ||
		StrategyGreedyCost.Name() != "greedy-cost" || StrategyPaperRetry.Name() != "paper-retry" {
		t.Fatal("strategy names wrong")
	}
	// fmt's %s keeps working on the concrete built-ins.
	if fmt.Sprintf("%s", StrategyPaper) != "paper" {
		t.Fatal("Stringer wrong")
	}
	// nil Params.Strategy resolves to the paper procedure.
	if (Params{}).strategy().Name() != "paper" {
		t.Fatal("nil strategy default wrong")
	}
}
