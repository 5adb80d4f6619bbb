package flow

import (
	"fmt"
	"testing"

	"xhybrid/internal/core"
	"xhybrid/internal/misr"
	"xhybrid/internal/scan"
	"xhybrid/internal/tester"
	"xhybrid/internal/workload"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
)

// figure4 builds the paper's Figure 4 X-map (8 patterns, 5 chains x 3
// cells).
func figure4() *xmap.XMap {
	m := xmap.New(8, 15)
	add := func(chain, pos int, patterns ...int) {
		for _, p := range patterns {
			m.Add(p-1, (chain-1)*3+pos-1)
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

// TestResidualAgreement replays every strategy's plan over responses
// synthesized from its X-map, through an identity compactor (a MISR input
// per chain), so no two X's can fold together: the replay must hold its
// verdict and remove and leave exactly the X's the plan accounts. The
// planner's own residual map is checked against the same accounting in
// core's TestResidualAgreement.
func TestResidualAgreement(t *testing.T) {
	cktb8 := workload.Scaled(workload.CKTB(), 8)
	fixtures := []struct {
		name string
		geom scan.Geometry
		gen  func() (*xmap.XMap, error)
		m, q int
	}{
		{"fig4", scan.MustGeometry(5, 3), func() (*xmap.XMap, error) { return figure4(), nil }, 10, 2},
		{"cktb8", cktb8.Geometry(), cktb8.Generate, 32, 7},
	}
	for _, fx := range fixtures {
		for _, s := range []core.Strategy{core.StrategyPaper, core.StrategyPaperRandom, core.StrategyGreedyCost} {
			t.Run(fmt.Sprintf("%s_%s", fx.name, s.Name()), func(t *testing.T) {
				m, err := fx.gen()
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.Run(m, core.Params{
					Geom:     fx.geom,
					Cancel:   xcancel.Config{MISR: misr.MustStandard(fx.m), Q: fx.q},
					Strategy: s,
					Seed:     1,
				})
				if err != nil {
					t.Fatal(err)
				}
				chains := fx.geom.Chains
				prog, err := Assemble(res, fx.geom,
					xcancel.Config{MISR: misr.MustStandard(chains), Q: min(fx.q, chains-1)},
					tester.Config{Channels: chains, OverlapMaskLoad: true}, nil)
				if err != nil {
					t.Fatal(err)
				}
				set, err := workload.ResponsesFromXMap(m, fx.geom, 7)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := VerifyPacked(prog, set)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Violation != nil {
					t.Fatalf("replay verdict: %v", rep.Violation)
				}
				if rep.MaskedX != res.MaskedX || rep.ResidualX != res.ResidualX {
					t.Fatalf("replay masked %d and left %d X's, plan accounts %d and %d",
						rep.MaskedX, rep.ResidualX, res.MaskedX, res.ResidualX)
				}
			})
		}
	}
}
