package core

import (
	"fmt"
	"testing"

	"xhybrid/internal/gf2"
	"xhybrid/internal/misr"
	"xhybrid/internal/obs"
	"xhybrid/internal/workload"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
)

// naiveCost prices a partition list from first principles, sharing no code
// with the incremental engine: full scans, no caches, no deltas. It is the
// reference the engine's running totals and contribution swaps must agree
// with, integer for integer.
func naiveCost(m *xmap.XMap, params Params, parts []gf2.Vec) int {
	totalX := m.TotalX()
	masked, maskBits := 0, 0
	for _, p := range parts {
		size := p.PopCount()
		cells := 0
		if size > 0 {
			for _, c := range m.XCells() {
				if c.Patterns.PopCountAnd(p) == size {
					cells++
				}
			}
		}
		masked += cells * size
		maskBits += params.maskImageBits()
	}
	return maskBits + xcancel.ControlBits(totalX-masked, params.Cancel.MISR.Size, params.Cancel.Q)
}

// replayRounds re-derives the partition list at every round boundary and
// checks the recorded CostBefore/CostAfter against naiveCost. The commit
// rule mirrors the engine's: the X side replaces the parent in place, the
// complement lands right after it; rejected rounds leave the list alone.
func replayRounds(t *testing.T, m *xmap.XMap, params Params, res *Result) {
	t.Helper()
	all := gf2.NewVec(m.Patterns())
	all.SetAll()
	parts := []gf2.Vec{all}
	for _, r := range res.Rounds {
		if got := naiveCost(m, params, parts); got != r.CostBefore {
			t.Fatalf("round %d: CostBefore = %d, naive recomputation = %d", r.Round, r.CostBefore, got)
		}
		parent := parts[r.SplitPartition]
		cellBits, ok := m.CellPatterns(r.SplitCell)
		if !ok {
			t.Fatalf("round %d: split cell %d has no X patterns", r.Round, r.SplitCell)
		}
		xs := parent.Clone()
		xs.And(cellBits)
		rs := parent.Clone()
		rs.AndNot(cellBits)
		next := make([]gf2.Vec, 0, len(parts)+1)
		next = append(next, parts[:r.SplitPartition]...)
		next = append(next, xs, rs)
		next = append(next, parts[r.SplitPartition+1:]...)
		if got := naiveCost(m, params, next); got != r.CostAfter {
			t.Fatalf("round %d: CostAfter = %d, naive recomputation = %d", r.Round, r.CostAfter, got)
		}
		if r.Accepted != (r.CostAfter < r.CostBefore) {
			t.Fatalf("round %d: Accepted = %t contradicts costs %d -> %d", r.Round, r.Accepted, r.CostBefore, r.CostAfter)
		}
		if r.Accepted {
			parts = next
		}
	}
	// The final partitions must be exactly the replayed state.
	if len(parts) != len(res.Partitions) {
		t.Fatalf("replay ends with %d partitions, result has %d", len(parts), len(res.Partitions))
	}
	for i, p := range parts {
		if !p.Equal(res.Partitions[i].Patterns) {
			t.Fatalf("partition %d differs between replay and result", i)
		}
	}
}

// TestIncrementalCostsMatchNaiveReplay checks, on every strategy and a
// spread of fixtures, that the delta-priced costs the engine records are
// the exact full costs a from-scratch evaluation computes.
func TestIncrementalCostsMatchNaiveReplay(t *testing.T) {
	strategies := []Strategy{StrategyPaper, StrategyPaperRandom, StrategyGreedyCost}
	type fixture struct {
		name   string
		gen    func() (*xmap.XMap, Params)
		mutate func(*Params)
	}
	var fixtures []fixture
	fixtures = append(fixtures, fixture{
		name: "fig4_q2",
		gen:  func() (*xmap.XMap, Params) { return fig4(), fig4Params(2) },
	})
	fixtures = append(fixtures, fixture{
		name:   "fig4_q2_cheapmask",
		gen:    func() (*xmap.XMap, Params) { return fig4(), fig4Params(2) },
		mutate: func(p *Params) { p.MaskBitsPerPartition = 4 },
	})
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		fixtures = append(fixtures, fixture{
			name: fmt.Sprintf("rand%d", seed),
			gen: func() (*xmap.XMap, Params) {
				m, geom := randMap(seed)
				p := fig4Params(2)
				p.Geom = geom
				return m, p
			},
		})
	}
	for _, fx := range fixtures {
		for _, s := range strategies {
			fx, s := fx, s
			t.Run(fmt.Sprintf("%s_%s", fx.name, s), func(t *testing.T) {
				m, params := fx.gen()
				params.Strategy = s
				params.Seed = 1
				if fx.mutate != nil {
					fx.mutate(&params)
				}
				res, err := Run(m, params)
				if err != nil {
					t.Fatal(err)
				}
				replayRounds(t, m, params, res)
			})
		}
	}
}

// TestIncrementalCachesEngage runs the greedy strategy on a fixture large
// enough to take several rounds and checks the memoization actually fires:
// states are shared across candidates and rounds, repriced attempts hit the
// cache, and the recompute count stays below the pre-incremental floor of
// two full scans per scored candidate.
func TestIncrementalCachesEngage(t *testing.T) {
	prof := workload.Scaled(workload.CKTB(), 8)
	m, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	params := Params{
		Geom:     prof.Geometry(),
		Cancel:   xcancel.Config{MISR: misr.MustStandard(32), Q: 7},
		Strategy: StrategyGreedyCost,
		Obs:      rec,
	}
	if _, err := Run(m, params); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	scored := snap.CounterValue("core.splits.scored")
	recomputes := snap.CounterValue("core.maskedx.recomputes")
	hits := snap.CounterValue("core.state.cache.hits")
	if scored == 0 {
		t.Fatal("fixture produced no greedy candidates")
	}
	if hits == 0 {
		t.Errorf("state cache never hit across %d scored candidates", scored)
	}
	if recomputes >= 2*scored {
		t.Errorf("recomputes = %d, want < %d (two full scans per candidate was the old floor)", recomputes, 2*scored)
	}
	if snap.CounterValue("core.score.delta") == 0 {
		t.Error("no delta-priced scores recorded")
	}
}

// TestGroupsCacheEngages checks the paper strategy reuses a partition's
// candidate groups across rounds instead of regrouping every live partition
// every round.
func TestGroupsCacheEngages(t *testing.T) {
	m, geom := randMap(1)
	params := fig4Params(2)
	params.Geom = geom
	params.Strategy = StrategyPaper
	rec := obs.New()
	params.Obs = rec
	res, err := Run(m, params)
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	misses := snap.CounterValue("core.groups.cache.misses")
	groupings := snap.CounterValue("correlation.groupings")
	if misses != groupings {
		t.Errorf("groups cache misses = %d but correlation ran %d groupings; every grouping should be a miss", misses, groupings)
	}
	if len(res.Rounds) >= 2 && snap.CounterValue("core.groups.cache.hits") == 0 {
		t.Errorf("multi-round run (%d rounds) never hit the groups cache", len(res.Rounds))
	}
}
