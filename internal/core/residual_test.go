package core

import (
	"fmt"
	"testing"

	"xhybrid/internal/misr"
	"xhybrid/internal/workload"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
)

// TestResidualAgreement pins the planner's accounting (Result.ResidualX)
// to its own residual X-map (ResidualMap(...).TotalX()), for every
// strategy. The end-to-end view, what the X-canceling MISR sees after the
// masks gate synthesized responses, is flow's TestResidualAgreement.
func TestResidualAgreement(t *testing.T) {
	type fixture struct {
		name string
		gen  func(t *testing.T) (*xmap.XMap, Params)
	}
	fixtures := []fixture{
		{name: "fig4", gen: func(*testing.T) (*xmap.XMap, Params) { return fig4(), fig4Params(2) }},
		{name: "cktb8", gen: func(t *testing.T) (*xmap.XMap, Params) {
			prof := workload.Scaled(workload.CKTB(), 8)
			m, err := prof.Generate()
			if err != nil {
				t.Fatal(err)
			}
			return m, Params{
				Geom:   prof.Geometry(),
				Cancel: xcancel.Config{MISR: misr.MustStandard(32), Q: 7},
			}
		}},
	}
	for _, fx := range fixtures {
		for _, s := range []Strategy{StrategyPaper, StrategyPaperRandom, StrategyGreedyCost} {
			fx, s := fx, s
			t.Run(fmt.Sprintf("%s_%s", fx.name, s.Name()), func(t *testing.T) {
				m, params := fx.gen(t)
				params.Seed = 1
				params.Strategy = s
				res, err := Run(m, params)
				if err != nil {
					t.Fatal(err)
				}
				rm := ResidualMap(m, res.Partitions)
				if rm.TotalX() != res.ResidualX {
					t.Fatalf("ResidualMap has %d X's, accounting says ResidualX = %d", rm.TotalX(), res.ResidualX)
				}
			})
		}
	}
}
