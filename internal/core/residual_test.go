package core

import (
	"fmt"
	"testing"

	"xhybrid/internal/misr"
	"xhybrid/internal/scan"
	"xhybrid/internal/workload"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
)

// TestResidualAgreement pins the three views of "X's left after masking" to
// each other, for every strategy:
//
//	Result.ResidualX            — the planner's accounting
//	ResidualMap(...).TotalX()   — the planner's own residual X-map
//	RunPartitioned(...).TotalX  — what the X-canceling MISR actually sees
//	                              after the masks gate real responses
//
// The last one is the end-to-end check: responses are synthesized from the
// X-map, split per partition, passed through each partition's mask, and run
// through the partitioned canceler.
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
				// End to end: real responses, real masks, real canceler.
				set, err := workload.ResponsesFromXMap(m, params.Geom, 7)
				if err != nil {
					t.Fatal(err)
				}
				sets := make([]xcancel.PatternSet, len(res.Partitions))
				for i, p := range res.Partitions {
					sets[i] = p.Patterns
				}
				subs, err := xcancel.SplitByPartition(set, sets)
				if err != nil {
					t.Fatal(err)
				}
				for i, sub := range subs {
					masked := scan.NewResponseSet(set.Geom)
					for _, r := range sub.Responses {
						if err := masked.Append(res.Partitions[i].Mask.Apply(r)); err != nil {
							t.Fatal(err)
						}
					}
					subs[i] = masked
				}
				// The planner's accounting MISR can be any width, but the
				// response-level canceler needs one input per scan chain.
				// The X count it observes is independent of the MISR width,
				// which is all this test pins.
				runCfg := xcancel.Config{
					MISR: misr.MustStandard(params.Geom.Chains),
					Q:    min(params.Cancel.Q, params.Geom.Chains-1),
				}
				pr, err := xcancel.RunPartitioned(runCfg, subs, 2)
				if err != nil {
					t.Fatal(err)
				}
				if pr.TotalX != res.ResidualX {
					t.Fatalf("partitioned canceler saw %d X's, plan accounts ResidualX = %d", pr.TotalX, res.ResidualX)
				}
			})
		}
	}
}
