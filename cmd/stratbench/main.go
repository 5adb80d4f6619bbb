// Command stratbench is the strategy tournament: it races every registered
// partitioning strategy (plus the clustered variant) across a matrix of
// workloads — synthetic CKT profiles and real X-maps built by the circuit
// pipeline — and reports the control-bit / wall-clock frontier.
//
// Every lane's plan is verified before it may score: the plan is replayed
// through the real hardware models (mask stage → spatial compactor →
// X-canceling MISR, flow.VerifyResponses), and on narrow geometries
// (chains <= 64, where the response-level canceler can take one input per
// chain) additionally through the partitioned canceler, whose observed X
// count must equal the plan's accounted ResidualX exactly. Unverified lanes
// are reported but excluded from the frontier.
//
// Usage:
//
//	stratbench [-workloads ckt-b8,flow-small,...] [-strategies all]
//	           [-workers N] [-out BENCH_strategies.json]
//
// The JSON output is the record format of BENCH_strategies.json; the CI
// strategy-tournament job runs the ckt-b8 workload and asserts every
// registered strategy produced a verified plan.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"xhybrid/internal/core"
	"xhybrid/internal/flow"
	"xhybrid/internal/misr"
	"xhybrid/internal/scan"
	"xhybrid/internal/tester"
	"xhybrid/internal/workload"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
)

// input is one prepared workload: the X-map, its geometry, the response
// set the verification replays, and the canceling configuration every lane
// runs under.
type input struct {
	name      string
	m         *xmap.XMap
	geom      scan.Geometry
	responses *scan.ResponseSet
	mSize, q  int
}

// lane is one competitor: a registered strategy, or the clustered variant.
type lane struct {
	name string
	run  func(ctx context.Context, m *xmap.XMap, p core.Params) (*core.Result, error)
}

// result is one (workload, lane) cell of the tournament, serialized into
// BENCH_strategies.json.
type result struct {
	Strategy   string  `json:"strategy"`
	Partitions int     `json:"partitions"`
	Rounds     int     `json:"rounds"`
	MaskedX    int     `json:"maskedX"`
	ResidualX  int     `json:"residualX"`
	MaskBits   int     `json:"maskBits"`
	CancelBits int     `json:"cancelBits"`
	TotalBits  int     `json:"totalBits"`
	WallMs     float64 `json:"wallMs"`
	// Verified: the replay verdict held — the replayed plan masked no
	// observable capture, removed exactly the accounted X's, and stayed
	// within the accounted residual and the planned halt budget (plus the
	// exact partitioned-canceler check on narrow geometries).
	Verified bool `json:"verified"`
	// ExactCanceler reports whether the chains<=64 exact check ran.
	ExactCanceler bool `json:"exactCanceler"`
	// Frontier marks the verified Pareto-optimal lanes over
	// (totalBits, wallMs) within the workload.
	Frontier bool   `json:"frontier"`
	Error    string `json:"error,omitempty"`
}

type workloadReport struct {
	Workload string   `json:"workload"`
	Cells    int      `json:"cells"`
	Chains   int      `json:"chains"`
	Patterns int      `json:"patterns"`
	TotalX   int      `json:"totalX"`
	MISRSize int      `json:"m"`
	Q        int      `json:"q"`
	Results  []result `json:"results"`
}

type benchFile struct {
	Description string           `json:"description"`
	Workloads   []workloadReport `json:"workloads"`
}

// flowSpecs are the real-X-map workloads, keyed by tournament name. The
// two 102400-cell specs are the BENCH_flow.json large recipes.
var flowSpecs = map[string]flow.Spec{
	"flow-small": {Cells: 1024, Chains: 32, XClusters: 24, Patterns: 128,
		MISRSize: 16, Q: 7, CircuitSeed: 0, StimSeed: 0},
	"flow-large-sparse": {Cells: 102400, Chains: 512, XClusters: 2000, Patterns: 256,
		MISRSize: 32, Q: 7},
	"flow-large-dense": {Cells: 102400, Chains: 512, XClusters: 400, XFanout: 256,
		EnableTaps: 1, Patterns: 256, MISRSize: 32, Q: 7},
}

const defaultWorkloads = "ckt-a4,ckt-b8,ckt-c8,flow-small,flow-large-sparse,flow-large-dense"

func main() {
	workloads := flag.String("workloads", defaultWorkloads,
		"comma-separated workload names: ckt-{a,b,c}[K] (profile scaled by K) or "+
			strings.Join(flowSpecNames(), ", "))
	strategies := flag.String("strategies", "all",
		"comma-separated lanes: registry names, clustered, or all")
	workers := flag.Int("workers", 0, "worker goroutines per run (0 = all CPUs)")
	out := flag.String("out", "-", "output path (- = stdout)")
	flag.Parse()

	lanes, err := parseLanes(*strategies)
	if err != nil {
		die(err)
	}
	file := benchFile{
		Description: "Strategy tournament: every registered partitioning strategy plus the " +
			"clustered variant raced per workload; plans replay-verified before scoring; " +
			"frontier = verified Pareto set over (totalBits, wallMs). " +
			"Reproduce: go run ./cmd/stratbench",
	}
	for _, name := range strings.Split(*workloads, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		in, err := prepare(name)
		if err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "stratbench: %s: %d cells, %d patterns, %d X's\n",
			in.name, in.m.Cells(), in.m.Patterns(), in.m.TotalX())
		file.Workloads = append(file.Workloads, race(in, lanes, *workers))
	}
	enc := json.NewEncoder(os.Stdout)
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			die(err)
		}
		defer f.Close()
		enc = json.NewEncoder(f)
	}
	enc.SetIndent("", "  ")
	if err := enc.Encode(file); err != nil {
		die(err)
	}
}

func flowSpecNames() []string {
	names := make([]string, 0, len(flowSpecs))
	for n := range flowSpecs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// parseLanes resolves the -strategies flag: every lane name must be a
// registry name (aliases accepted), or "clustered".
func parseLanes(arg string) ([]lane, error) {
	var lanes []lane
	add := func(name string) error {
		if name == "clustered" {
			lanes = append(lanes, lane{name: "clustered", run: core.RunClusteredCtx})
			return nil
		}
		strat, err := core.LookupStrategy(name)
		if err != nil {
			return fmt.Errorf("stratbench: %w (or \"clustered\")", err)
		}
		lanes = append(lanes, lane{name: strat.Name(),
			run: func(ctx context.Context, m *xmap.XMap, p core.Params) (*core.Result, error) {
				p.Strategy = strat
				return core.RunCtx(ctx, m, p)
			}})
		return nil
	}
	if arg == "all" {
		for _, name := range core.StrategyNames() {
			if err := add(name); err != nil {
				return nil, err
			}
		}
		return lanes, add("clustered")
	}
	for _, name := range strings.Split(arg, ",") {
		if err := add(strings.TrimSpace(name)); err != nil {
			return nil, err
		}
	}
	return lanes, nil
}

// prepare materializes a workload by name: synthetic profiles get
// pseudo-responses synthesized from their X-map (seed 7, the residual
// test's convention); flow specs run the real circuit pipeline and race
// over the simulated responses.
func prepare(name string) (*input, error) {
	if spec, ok := flowSpecs[name]; ok {
		xb, err := flow.BuildXMap(context.Background(), spec)
		if err != nil {
			return nil, fmt.Errorf("stratbench: %s: %w", name, err)
		}
		return &input{name: name, m: xb.XMap, geom: xb.Geom,
			responses: xb.Responses, mSize: spec.MISRSize, q: spec.Q}, nil
	}
	prof, err := workload.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("%w (or %s)", err, strings.Join(flowSpecNames(), ", "))
	}
	m, err := prof.Generate()
	if err != nil {
		return nil, fmt.Errorf("stratbench: %s: %w", name, err)
	}
	geom := prof.Geometry()
	set, err := workload.ResponsesFromXMap(m, geom, 7)
	if err != nil {
		return nil, fmt.Errorf("stratbench: %s: %w", name, err)
	}
	return &input{name: name, m: m, geom: geom, responses: set,
		mSize: min(32, geom.Chains), q: 7}, nil
}

// race runs every lane on one workload, verifies each plan, and marks the
// verified Pareto frontier.
func race(in *input, lanes []lane, workers int) workloadReport {
	rep := workloadReport{
		Workload: in.name,
		Cells:    in.m.Cells(), Chains: in.geom.Chains, Patterns: in.m.Patterns(),
		TotalX: in.m.TotalX(), MISRSize: in.mSize, Q: in.q,
	}
	for _, ln := range lanes {
		r := result{Strategy: ln.name}
		p := core.Params{
			Geom:    in.geom,
			Cancel:  xcancel.Config{MISR: misr.MustStandard(in.mSize), Q: in.q},
			Seed:    1,
			Workers: workers,
		}
		t0 := time.Now()
		res, err := ln.run(context.Background(), in.m, p)
		r.WallMs = float64(time.Since(t0)) / float64(time.Millisecond)
		if err != nil {
			r.Error = err.Error()
			rep.Results = append(rep.Results, r)
			continue
		}
		r.Partitions = len(res.Partitions)
		r.Rounds = len(res.Rounds)
		r.MaskedX = res.MaskedX
		r.ResidualX = res.ResidualX
		r.MaskBits = res.MaskBits
		r.CancelBits = res.CancelBits
		r.TotalBits = res.TotalBits

		r.Verified, r.ExactCanceler, r.Error = verify(in, res)
		rep.Results = append(rep.Results, r)
		fmt.Fprintf(os.Stderr, "stratbench: %s/%s: %d bits in %.0f ms, verified=%t\n",
			in.name, ln.name, r.TotalBits, r.WallMs, r.Verified)
	}
	markFrontier(rep.Results)
	return rep
}

// verify replays the plan through the hardware models. All geometries get
// the full program replay (mask stage → compactor → canceling MISR, the
// pipeline's stage-6 check) and its verdict; geometries narrow enough for a
// one-input-per-chain MISR additionally run the partitioned canceler and
// demand its observed X count equal the accounted ResidualX exactly.
func verify(in *input, res *core.Result) (verified, exact bool, errMsg string) {
	prog, err := flow.Assemble(res, in.geom,
		xcancel.Config{MISR: misr.MustStandard(in.mSize), Q: in.q},
		tester.Config{Channels: in.mSize, OverlapMaskLoad: true}, nil)
	if err != nil {
		return false, false, "assemble: " + err.Error()
	}
	vr, err := flow.VerifyResponses(prog, in.responses)
	if err != nil {
		return false, false, "replay: " + err.Error()
	}
	if vr.Violation != nil {
		return false, false, vr.Violation.Error()
	}
	if in.geom.Chains > 64 {
		return true, false, ""
	}
	// Narrow geometry: the response-level canceler can observe every chain
	// directly, so its X count must match the accounting bit for bit.
	sets := make([]xcancel.PatternSet, len(res.Partitions))
	for i, p := range res.Partitions {
		sets[i] = p.Patterns
	}
	subs, err := xcancel.SplitByPartition(in.responses, sets)
	if err != nil {
		return false, false, "split: " + err.Error()
	}
	for i, sub := range subs {
		masked := scan.NewResponseSet(in.responses.Geom)
		for _, resp := range sub.Responses {
			if err := masked.Append(res.Partitions[i].Mask.Apply(resp)); err != nil {
				return false, false, "mask: " + err.Error()
			}
		}
		subs[i] = masked
	}
	runCfg := xcancel.Config{
		MISR: misr.MustStandard(in.geom.Chains),
		Q:    min(in.q, in.geom.Chains-1),
	}
	pr, err := xcancel.RunPartitioned(runCfg, subs, 0)
	if err != nil {
		return false, false, "canceler: " + err.Error()
	}
	if pr.TotalX != res.ResidualX {
		return false, true, fmt.Sprintf("partitioned canceler saw %d X's, plan accounts %d", pr.TotalX, res.ResidualX)
	}
	return true, true, ""
}

// markFrontier flags the Pareto-optimal verified results over
// (totalBits, wallMs): a lane is dominated if another verified lane is no
// worse on both axes and strictly better on one.
func markFrontier(results []result) {
	for i := range results {
		if !results[i].Verified {
			continue
		}
		dominated := false
		for j := range results {
			if i == j || !results[j].Verified {
				continue
			}
			a, b := results[j], results[i]
			if a.TotalBits <= b.TotalBits && a.WallMs <= b.WallMs &&
				(a.TotalBits < b.TotalBits || a.WallMs < b.WallMs) {
				dominated = true
				break
			}
		}
		results[i].Frontier = !dominated
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "stratbench:", err)
	os.Exit(1)
}
