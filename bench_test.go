// Benchmark harness: one benchmark per paper table/figure plus the
// substrate hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// Table/figure benches report the measured experiment metrics via
// b.ReportMetric (control bits, normalized test time, partitions) so the
// bench output doubles as the numeric record for EXPERIMENTS.md.
package xhybrid

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"xhybrid/internal/atpg"
	"xhybrid/internal/compactor"
	"xhybrid/internal/core"
	"xhybrid/internal/correlation"
	"xhybrid/internal/fault"
	"xhybrid/internal/flow"
	"xhybrid/internal/gf2"
	"xhybrid/internal/logic"
	"xhybrid/internal/misr"
	"xhybrid/internal/netlist"
	"xhybrid/internal/scan"
	"xhybrid/internal/sim"
	"xhybrid/internal/superset"
	"xhybrid/internal/tester"
	"xhybrid/internal/workload"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
	"xhybrid/internal/xmask"
)

// table1Params is the paper's configuration: 32-bit MISR, q = 7.
func table1Params(geom scan.Geometry) core.Params {
	return core.Params{Geom: geom, Cancel: xcancel.Config{MISR: misr.MustStandard(32), Q: 7}}
}

// BenchmarkTable1 regenerates the Table 1 rows (control-bit volume and
// normalized test time for all three schemes) per iteration.
func BenchmarkTable1(b *testing.B) {
	for _, prof := range workload.Profiles() {
		prof := prof
		b.Run(prof.Name, func(b *testing.B) {
			m, err := prof.Generate()
			if err != nil {
				b.Fatal(err)
			}
			var cmp *core.Comparison
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cmp, err = core.Evaluate(m, table1Params(prof.Geometry()))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cmp.MaskOnlyBits)/1e6, "maskonly-Mbits")
			b.ReportMetric(float64(cmp.CancelOnlyBits)/1e6, "cancelonly-Mbits")
			b.ReportMetric(float64(cmp.HybridBits)/1e6, "proposed-Mbits")
			b.ReportMetric(cmp.ImprovementOverCancel, "impv-over-cancel")
			b.ReportMetric(cmp.TestTimeCancelOnly, "ttime-cancelonly")
			b.ReportMetric(cmp.TestTimeHybrid, "ttime-proposed")
			b.ReportMetric(float64(len(cmp.Result.Partitions)), "partitions")
		})
	}
}

// BenchmarkFigure23 runs the symbolic-MISR + Gaussian-elimination example:
// a 6-bit MISR, 18 inputs with 4 X's, extraction of 2 X-free combinations.
func BenchmarkFigure23(b *testing.B) {
	cfg := misr.MustStandard(6)
	inputs := make([]logic.Vector, 3)
	r := rand.New(rand.NewSource(2))
	xLeft := 4
	for c := range inputs {
		in := make(logic.Vector, 6)
		for i := range in {
			if xLeft > 0 && r.Intn(4) == 0 {
				in[i] = logic.X
				xLeft--
			} else {
				in[i] = logic.V(r.Intn(2))
			}
		}
		inputs[c] = in
	}
	b.ResetTimer()
	var nfree int
	for i := 0; i < b.N; i++ {
		sym := misr.MustNewSymbolic(cfg, 8)
		for _, in := range inputs {
			sym.ClockVector(in, nil)
		}
		sels := gf2.NullCombinations(sym.Matrix())
		nfree = len(sels)
	}
	b.ReportMetric(float64(nfree), "xfree-combos")
}

// BenchmarkFigures456 runs the paper's worked example end to end (both
// cost-function configurations).
func BenchmarkFigures456(b *testing.B) {
	x := PaperExample()
	var total int
	for i := 0; i < b.N; i++ {
		for _, q := range []int{2, 1} {
			plan, err := Partition(x, Options{MISRSize: 10, Q: q})
			if err != nil {
				b.Fatal(err)
			}
			total = plan.TotalBits
		}
	}
	b.ReportMetric(float64(total), "q1-total-bits")
}

// BenchmarkSection3 runs the X-value correlation analysis on the CKT-B
// class workload.
func BenchmarkSection3(b *testing.B) {
	m, err := workload.CKTB().Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		a := correlation.Analyze(m)
		frac = a.ConcentrationCellFraction(0.90)
	}
	b.ReportMetric(100*frac, "cells-for-90pct-X-%")
}

// BenchmarkStrategies compares the three split-selection strategies
// (ablation) on a 1/4-scale CKT-B.
func BenchmarkStrategies(b *testing.B) {
	prof := workload.Scaled(workload.CKTB(), 4)
	m, err := prof.Generate()
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []core.Strategy{core.StrategyPaper, core.StrategyPaperRandom, core.StrategyGreedyCost} {
		s := s
		b.Run(s.Name(), func(b *testing.B) {
			var bits int
			for i := 0; i < b.N; i++ {
				p := table1Params(prof.Geometry())
				p.Strategy = s
				res, err := core.Run(m, p)
				if err != nil {
					b.Fatal(err)
				}
				bits = res.TotalBits
			}
			b.ReportMetric(float64(bits), "total-bits")
		})
	}
}

// BenchmarkQSweep sweeps the X-free combination count per halt (ablation).
func BenchmarkQSweep(b *testing.B) {
	prof := workload.Scaled(workload.CKTB(), 4)
	m, err := prof.Generate()
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []int{1, 3, 7, 11, 15} {
		q := q
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			var bits int
			for i := 0; i < b.N; i++ {
				p := core.Params{Geom: prof.Geometry(), Cancel: xcancel.Config{MISR: misr.MustStandard(32), Q: q}}
				res, err := core.Run(m, p)
				if err != nil {
					b.Fatal(err)
				}
				bits = res.TotalBits
			}
			b.ReportMetric(float64(bits), "total-bits")
		})
	}
}

// BenchmarkPartitionWorkers compares serial (workers=1) and fully parallel
// (workers=0, all CPUs) partitioning over the synthetic workloads. The
// plans are identical; the delta is the parallel execution layer's speedup,
// recorded per PR by the CI bench job.
func BenchmarkPartitionWorkers(b *testing.B) {
	for _, base := range workload.Profiles() {
		prof := workload.Scaled(base, 4)
		m, err := prof.Generate()
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range []int{1, 0} {
			w := w
			name := fmt.Sprintf("%s/workers=%d", base.Name, w)
			b.Run(name, func(b *testing.B) {
				p := table1Params(prof.Geometry())
				p.Workers = w
				var bits int
				for i := 0; i < b.N; i++ {
					res, err := core.Run(m, p)
					if err != nil {
						b.Fatal(err)
					}
					bits = res.TotalBits
				}
				b.ReportMetric(float64(bits), "total-bits")
			})
		}
	}
}

// BenchmarkXCancelPartitioned measures per-partition X-canceling sessions
// (independent symbolic MISRs + Gaussian eliminations) serial vs parallel.
func BenchmarkXCancelPartitioned(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	g := scan.MustGeometry(16, 64)
	var sets []*scan.ResponseSet
	for part := 0; part < 8; part++ {
		set := scan.NewResponseSet(g)
		for p := 0; p < 6; p++ {
			resp := scan.NewResponse(g)
			for c := 0; c < g.Chains; c++ {
				for t := 0; t < g.ChainLen; t++ {
					switch {
					case r.Float64() < 0.02:
						resp.Set(c, t, logic.X)
					case r.Intn(2) == 1:
						resp.Set(c, t, logic.One)
					default:
						resp.Set(c, t, logic.Zero)
					}
				}
			}
			if err := set.Append(resp); err != nil {
				b.Fatal(err)
			}
		}
		sets = append(sets, set)
	}
	cfg := xcancel.Config{MISR: misr.MustStandard(16), Q: 3}
	for _, w := range []int{1, 0} {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var halts int
			for i := 0; i < b.N; i++ {
				res, err := xcancel.RunPartitioned(cfg, sets, w)
				if err != nil {
					b.Fatal(err)
				}
				halts = res.Halts
			}
			b.ReportMetric(float64(halts), "halts")
		})
	}
}

// BenchmarkWorkloadGeneration measures the synthetic X-map generators.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for _, prof := range workload.Profiles() {
		prof := prof
		b.Run(prof.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prof.Generate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkXCancelSession measures the cycle-level X-canceling controller.
func BenchmarkXCancelSession(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g := scan.MustGeometry(16, 64)
	set := scan.NewResponseSet(g)
	for p := 0; p < 8; p++ {
		resp := scan.NewResponse(g)
		for c := 0; c < g.Chains; c++ {
			for t := 0; t < g.ChainLen; t++ {
				switch {
				case r.Float64() < 0.02:
					resp.Set(c, t, logic.X)
				case r.Intn(2) == 1:
					resp.Set(c, t, logic.One)
				default:
					resp.Set(c, t, logic.Zero)
				}
			}
		}
		if err := set.Append(resp); err != nil {
			b.Fatal(err)
		}
	}
	cfg := xcancel.Config{MISR: misr.MustStandard(16), Q: 3}
	b.ResetTimer()
	var halts int
	for i := 0; i < b.N; i++ {
		res, err := xcancel.RunResponses(cfg, set)
		if err != nil {
			b.Fatal(err)
		}
		halts = len(res.Halts)
	}
	b.ReportMetric(float64(halts), "halts")
}

// BenchmarkScalarSim and BenchmarkParallelSim compare the two simulators on
// the same generated circuit and 64-pattern batch.
func benchCircuit(b *testing.B) (*netlist.Circuit, []logic.Vector, []logic.Vector) {
	b.Helper()
	c, err := netlist.Generate(netlist.GenConfig{
		Name: "bench", ScanCells: 256, PIs: 16, XClusters: 8, XFanout: 5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	st := atpg.GenerateStimuli(64, len(c.ScanCells), len(c.PIs), 1)
	return c, st.Loads, st.PIs
}

func BenchmarkScalarSim(b *testing.B) {
	c, loads, pis := benchCircuit(b)
	s := sim.New(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range loads {
			if _, _, err := s.Capture(loads[k], pis[k], sim.NoFault); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkParallelSim(b *testing.B) {
	c, loads, pis := benchCircuit(b)
	s := sim.NewParallel(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Capture(loads, pis); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultSimulation compares the serial reference simulator with the
// production PPSFP engine on the same workload.
func BenchmarkFaultSimulation(b *testing.B) {
	c, loads, pis := benchCircuit(b)
	faults := fault.Sample(fault.AllFaults(c), 64, 3)
	engines := []struct {
		name string
		run  func() (*fault.Result, error)
	}{
		{"serial", func() (*fault.Result, error) { return fault.Simulate(c, loads, pis, faults, nil) }},
		{"ppsfp", func() (*fault.Result, error) {
			blocks, err := sim.CaptureBlocks(context.Background(), c, loads, pis, 0)
			if err != nil {
				return nil, err
			}
			res, err := fault.SimulatePPSFP(context.Background(), c, blocks, faults, []fault.Observe{nil}, fault.PPSFPOptions{})
			if err != nil {
				return nil, err
			}
			return res[0], nil
		}},
	}
	for _, e := range engines {
		e := e
		b.Run(e.name, func(b *testing.B) {
			var cov float64
			for i := 0; i < b.N; i++ {
				res, err := e.run()
				if err != nil {
					b.Fatal(err)
				}
				cov = res.Coverage()
			}
			b.ReportMetric(100*cov, "coverage-%")
		})
	}
}

// BenchmarkGaussianElimination measures the GF(2) core at MISR-session
// scale (32x25, the paper's m=32 q=7 dependence matrix).
func BenchmarkGaussianElimination(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	for _, size := range []struct{ rows, cols int }{{32, 25}, {64, 64}, {128, 256}} {
		size := size
		b.Run(fmt.Sprintf("%dx%d", size.rows, size.cols), func(b *testing.B) {
			m := gf2.NewMat(size.rows, size.cols)
			for i := 0; i < size.rows; i++ {
				for j := 0; j < size.cols; j++ {
					if r.Intn(2) == 1 {
						m.Set(i, j)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gf2.Eliminate(m)
			}
		})
	}
}

// BenchmarkEndToEndFlow measures Build + hardware replay on a circuit
// workload (the partition and replay stages of the flow).
func BenchmarkEndToEndFlow(b *testing.B) {
	xb, err := flow.BuildXMap(context.Background(), flow.Spec{
		Name: "endtoend", Cells: 128, Chains: 16, XClusters: 4, XFanout: 5,
		CircuitSeed: 21, StimSeed: 17, Patterns: 80, MISRSize: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	params := core.Params{Geom: xb.Geom, Cancel: xcancel.Config{MISR: misr.MustStandard(16), Q: 3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := flow.Build(xb.XMap, params, tester.Config{Channels: 16, OverlapMaskLoad: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := flow.VerifyResponses(prog, xb.Responses); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSupersetBaseline measures the simplified superset X-canceling
// grouping on a 1/8-scale CKT-B.
func BenchmarkSupersetBaseline(b *testing.B) {
	prof := workload.Scaled(workload.CKTB(), 8)
	m, err := prof.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var groups int
	for i := 0; i < b.N; i++ {
		res, err := superset.Run(m, superset.Config{MISRSize: 32, Q: 7, MinJaccard: 0.3})
		if err != nil {
			b.Fatal(err)
		}
		groups = len(res.Groups)
	}
	b.ReportMetric(float64(groups), "groups")
}

// BenchmarkMaskEncoding measures gap-varint encoding of CKT-B/4 masks.
func BenchmarkMaskEncoding(b *testing.B) {
	prof := workload.Scaled(workload.CKTB(), 4)
	m, err := prof.Generate()
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Run(m, table1Params(prof.Geometry()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var bits int
	for i := 0; i < b.N; i++ {
		bits = 0
		for _, p := range res.Partitions {
			bits += 8 * len(xmask.EncodeGapVarint(p.Mask))
		}
	}
	b.ReportMetric(float64(bits), "encoded-bits")
}

// BenchmarkTesterSchedule measures the ATE schedule computation.
func BenchmarkTesterSchedule(b *testing.B) {
	plan := tester.Plan{
		Geom:             scan.MustGeometry(75, 481),
		PartitionOf:      tester.OrderedByPartition([]int{400, 450, 500, 550, 600, 500}),
		MaskBitsPerImage: 36075,
		Halts:            50000,
		MISRSize:         32,
		Q:                7,
	}
	cfg := tester.Config{Channels: 32, OverlapMaskLoad: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tester.Compute(plan, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompactor measures spatial compaction of a full response.
func BenchmarkCompactor(b *testing.B) {
	geom := scan.MustGeometry(128, 64)
	r := rand.New(rand.NewSource(1))
	resp := scan.NewResponse(geom)
	for c := 0; c < geom.Chains; c++ {
		for p := 0; p < geom.ChainLen; p++ {
			resp.Set(c, p, logic.V(r.Intn(2)))
		}
	}
	tree := compactor.MustModulo(128, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.CompactResponse(resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadXLocationsBinary measures the binary wire decoder on the
// full CKT-B map — the serving layer's cold-request parse cost, gated
// against regression by CI. BenchmarkReadXLocationsJSON decodes the same
// map from JSON for the format-tax comparison.
func BenchmarkReadXLocationsBinary(b *testing.B) {
	x, err := Workload("ckt-b", 0)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := x.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadXLocationsBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadXLocationsJSON(b *testing.B) {
	x, err := Workload("ckt-b", 0)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := x.WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadXLocations(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResidualMap measures the residual X-stream reconstruction used
// by the end-to-end flow.
func BenchmarkResidualMap(b *testing.B) {
	prof := workload.Scaled(workload.CKTB(), 4)
	m, err := prof.Generate()
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Run(m, table1Params(prof.Geometry()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var residual *xmap.XMap
	for i := 0; i < b.N; i++ {
		residual = core.ResidualMap(m, res.Partitions)
	}
	if residual.TotalX() != res.ResidualX {
		b.Fatal("residual mismatch")
	}
}
