// Command stratbench is the strategy tournament: it races every registered
// partitioning strategy across a matrix of workloads — synthetic CKT
// profiles and real X-maps built by the circuit pipeline — and reports the
// control-bit / wall-clock frontier.
//
// Every lane's plan is verified before it may score: the plan is replayed
// through the real hardware models (mask stage → spatial compactor →
// X-canceling MISR, flow.VerifyPacked), and on narrow geometries
// (chains <= 64, where a MISR can take one input per chain) through an
// identity compactor too, whose residual X count must equal the plan's
// accounted ResidualX exactly. Unverified lanes are reported but excluded
// from the frontier.
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

// input is one prepared workload: the X-map, its geometry, the packed
// response set the verification replays, and the canceling configuration
// every lane runs under.
type input struct {
	name      string
	m         *xmap.XMap
	geom      scan.Geometry
	responses *scan.PackedResponses
	mSize, q  int
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
	// exact identity-compactor residual on narrow geometries).
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
		"comma-separated registry names, or all")
	workers := flag.Int("workers", 0, "worker goroutines per run (0 = all CPUs)")
	out := flag.String("out", "-", "output path (- = stdout)")
	flag.Parse()

	lanes, err := parseLanes(*strategies)
	if err != nil {
		die(err)
	}
	file := benchFile{
		Description: "Strategy tournament: every registered partitioning strategy " +
			"raced per workload; plans replay-verified before scoring; " +
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
// registry name (aliases accepted), or the whole flag "all".
func parseLanes(arg string) ([]core.Strategy, error) {
	names := strings.Split(arg, ",")
	if arg == "all" {
		names = core.StrategyNames()
	}
	lanes := make([]core.Strategy, 0, len(names))
	for _, name := range names {
		strat, err := core.LookupStrategy(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("stratbench: %w", err)
		}
		lanes = append(lanes, strat)
	}
	return lanes, nil
}

// prepare materializes a workload by name: synthetic profiles get packed
// pseudo-responses synthesized from their X-map (seed 7, the residual
// test's convention); flow specs run the real circuit pipeline and race
// over its packed responses.
func prepare(name string) (*input, error) {
	if spec, ok := flowSpecs[name]; ok {
		xb, err := flow.BuildXMap(context.Background(), spec)
		if err != nil {
			return nil, fmt.Errorf("stratbench: %s: %w", name, err)
		}
		return &input{name: name, m: xb.XMap, geom: xb.Geom,
			responses: xb.Packed, mSize: spec.MISRSize, q: spec.Q}, nil
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
	packed, err := workload.ResponsesFromXMap(m, geom, 7)
	if err != nil {
		return nil, fmt.Errorf("stratbench: %s: %w", name, err)
	}
	return &input{name: name, m: m, geom: geom, responses: packed,
		mSize: min(32, geom.Chains), q: 7}, nil
}

// race runs every lane on one workload, verifies each plan, and marks the
// verified Pareto frontier.
func race(in *input, lanes []core.Strategy, workers int) workloadReport {
	rep := workloadReport{
		Workload: in.name,
		Cells:    in.m.Cells(), Chains: in.geom.Chains, Patterns: in.m.Patterns(),
		TotalX: in.m.TotalX(), MISRSize: in.mSize, Q: in.q,
	}
	for _, strat := range lanes {
		r := result{Strategy: strat.Name()}
		p := core.Params{
			Geom:     in.geom,
			Cancel:   xcancel.Config{MISR: misr.MustStandard(in.mSize), Q: in.q},
			Strategy: strat,
			Seed:     1,
			Workers:  workers,
		}
		t0 := time.Now()
		res, err := core.Run(in.m, p)
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
			in.name, r.Strategy, r.TotalBits, r.WallMs, r.Verified)
	}
	markFrontier(rep.Results)
	return rep
}

// verify replays the plan through the hardware models (mask stage →
// compactor → canceling MISR, the pipeline's stage-6 check) and holds it
// to the replay verdict. On geometries of at most 64 chains it also checks
// the X count exactly: through an identity compactor (a MISR input per
// chain) no two X's fold together, so the replayed residual must equal the
// accounted ResidualX. Where the lane's MISR already has one input per
// chain, the first replay is that program.
func verify(in *input, res *core.Result) (verified, exact bool, errMsg string) {
	vr, err := replay(in, res, in.mSize, in.q)
	if err != nil {
		return false, false, err.Error()
	}
	if vr.Violation != nil {
		return false, false, vr.Violation.Error()
	}
	if in.geom.Chains > 64 {
		return true, false, ""
	}
	if m, q := in.geom.Chains, min(in.q, in.geom.Chains-1); m != in.mSize || q != in.q {
		if vr, err = replay(in, res, m, q); err != nil {
			return false, false, err.Error()
		}
	}
	if vr.ResidualX != res.ResidualX {
		return false, true, fmt.Sprintf("identity-compactor replay left %d X's, plan accounts %d", vr.ResidualX, res.ResidualX)
	}
	return true, true, ""
}

// replay assembles the plan's program for an m-bit MISR extracting q
// combinations per halt and replays the workload's responses through it.
func replay(in *input, res *core.Result, m, q int) (*flow.VerifyReport, error) {
	prog, err := flow.Assemble(res, in.geom,
		xcancel.Config{MISR: misr.MustStandard(m), Q: q},
		tester.Config{Channels: m, OverlapMaskLoad: true}, nil)
	if err != nil {
		return nil, fmt.Errorf("assemble: %w", err)
	}
	vr, err := flow.VerifyPacked(prog, in.responses)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return vr, nil
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

func die(err error) {
	fmt.Fprintln(os.Stderr, "stratbench:", err)
	os.Exit(1)
}
