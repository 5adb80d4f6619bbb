// Command xhybrid runs the hybrid X-handling flow on an X-location map:
// analyze its correlation structure, partition the patterns, and report the
// control-bit and test-time accounting against the baselines. Its verify
// subcommand runs the whole circuit flow instead: generate a circuit,
// simulate it, partition the extracted X-map and replay the plan through
// the hardware models.
//
// Usage:
//
//	xhybrid analyze   (-workload ckt-b | -in xmap.json) [-seed N]
//	xhybrid partition (-workload ckt-b | -in xmap.json) [-m 32] [-q 7]
//	                  [-strategy <registry name>] [-rounds N] [-workers N] [-v]
//	xhybrid report    (-workload ckt-b4 | -in xmap.json) [partition flags]
//	                  # markdown report: analysis, rounds, baselines
//	xhybrid example   # the paper's Figure 4-6 worked example
//	xhybrid verify    [-cells 4096] [-chains 64] [-xclusters 96] [-xfanout N]
//	                  [-taps N] [-patterns 256] [-m 32] [-q 7] [-strategy paper]
//	                  [-rounds N] [-workers N] [-faults N | -fault-full]
//	                  [-sweep 1,2,4] [-seed S] [-out report.json]
//	                  # run the circuit flow and print PASS or FAIL
//	xhybrid convert   (-workload ckt-b | -in xmap.json) [-out xmap.xmb]
//	                  # re-serialize an X map between the text, JSON and
//	                  # binary wire formats (format by file extension)
//
// Workload names are ckt-a, ckt-b and ckt-c, optionally scaled down by a
// factor suffix (ckt-b4 is a quarter of CKT-B's chains and patterns).
//
// verify's -seed shifts the circuit and stimulus seeds (both 1 by default);
// -sweep runs the flow once per listed worker count and refuses to report
// if the X-map, plan, replay or coverage diverge. With -out it writes the
// JSON report (an array under -sweep), the record format of
// BENCH_flow.json. A FAIL verdict names the broken clause and exits 1.
//
// Observability (any subcommand):
//
//	-stats            print the per-stage breakdown (rounds, splits scored,
//	                  halts, wall time per stage) after the run
//	-trace text|json  same breakdown in an explicit format (json emits the
//	                  full snapshot, engine counters included)
//	-cpuprofile f     write a CPU profile; -memprofile f a heap profile
//	-pprof addr       serve net/http/pprof (e.g. localhost:6060) for live
//	                  inspection of long replay runs
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"xhybrid"
	"xhybrid/internal/obs"
)

// options holds the flags of every subcommand; each reads the ones its
// usage line names.
type options struct {
	// Input and partitioning.
	workload, in    string
	seed            int64
	m, q            int
	strategy        string
	rounds, workers int
	verbose         bool
	// Observability.
	stats                                bool
	trace, cpuprofile, memprofile, pprof string
	// Circuit flow (verify).
	cells, chains, xclusters, xfanout, taps, patterns int
	faults                                            int
	faultFull                                         bool
	sweep                                             string
	// Output file (convert, verify).
	out string
}

func newFlagSet(cmd string) (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "named workload: ckt-a, ckt-b or ckt-c, optionally scaled down as in ckt-b4")
	fs.StringVar(&o.in, "in", "", "X-location file (.txt text, .xmb/.bin binary, else JSON)")
	fs.Int64Var(&o.seed, "seed", 0, "workload and partitioning seed (0 = profile default); verify: shifts the circuit and stimulus seeds")
	fs.IntVar(&o.m, "m", 32, "X-canceling MISR size (verify: must not exceed -chains)")
	fs.IntVar(&o.q, "q", 7, "X-free combinations per halt")
	fs.StringVar(&o.strategy, "strategy", "paper", "strategy registry name: "+strings.Join(xhybrid.Strategies(), ", "))
	fs.IntVar(&o.rounds, "rounds", 0, "max accepted partitioning rounds (0 = unlimited)")
	fs.IntVar(&o.workers, "workers", 0, "worker goroutines (0 = all CPUs); the plan is identical for any count")
	fs.BoolVar(&o.verbose, "v", false, "print the per-round trace and partitions")
	fs.BoolVar(&o.stats, "stats", false, "print a per-stage observability breakdown after the run")
	fs.StringVar(&o.trace, "trace", "", "print the observability snapshot after the run: text or json")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&o.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.IntVar(&o.cells, "cells", 4096, "verify: scan-cell count")
	fs.IntVar(&o.chains, "chains", 64, "verify: scan-chain count (must divide -cells)")
	fs.IntVar(&o.xclusters, "xclusters", 96, "verify: X-source clusters")
	fs.IntVar(&o.xfanout, "xfanout", 0, "verify: scan cells per cluster (0 = default 4)")
	fs.IntVar(&o.taps, "taps", 0, "verify: enable taps per cluster select (0 = default 2)")
	fs.IntVar(&o.patterns, "patterns", 256, "verify: test patterns")
	fs.IntVar(&o.faults, "faults", 0, "verify: collapsed stuck-at faults to sample for the coverage check (0 = skip)")
	fs.BoolVar(&o.faultFull, "fault-full", false, "verify: simulate the entire collapsed fault list (overrides -faults)")
	fs.StringVar(&o.sweep, "sweep", "", "verify: comma-separated worker counts; run each and refuse to report on divergence")
	fs.StringVar(&o.out, "out", "", "convert: output file, format by extension (.txt text, .xmb/.bin binary, else JSON; default JSON on stdout); verify: write the JSON report here")
	return fs, o
}

// partitionOptions maps the flags onto the facade's partitioning options.
func (o *options) partitionOptions(rec *xhybrid.Stats) xhybrid.Options {
	return xhybrid.Options{MISRSize: o.m, Q: o.q, Strategy: o.strategy, Seed: o.seed,
		MaxRounds: o.rounds, Workers: o.workers, Stats: rec}
}

// flowSpec maps the flags onto the circuit flow's spec. -seed shifts the
// circuit and stimulus seeds; the fault sample is always drawn with seed 1.
func (o *options) flowSpec() xhybrid.FlowSpec {
	return xhybrid.FlowSpec{
		Cells: o.cells, Chains: o.chains,
		XClusters: o.xclusters, XFanout: o.xfanout, EnableTaps: o.taps,
		CircuitSeed: o.seed + 1, StimSeed: uint64(o.seed) + 1,
		Patterns: o.patterns,
		MISRSize: o.m, Q: o.q, Strategy: o.strategy, MaxRounds: o.rounds, Workers: o.workers,
		FaultSample: o.faults, FaultSeed: 1, FaultFull: o.faultFull,
	}
}

func main() { run(os.Args[1:]) }

// run executes one command line (the arguments after the program name).
func run(args []string) {
	if len(args) < 1 {
		usage()
	}
	cmd := args[0]
	fs, o := newFlagSet(cmd)
	if err := fs.Parse(args[1:]); err != nil {
		exit(2)
	}
	rec, finishObs := startObs(o.stats, o.trace, o.cpuprofile, o.memprofile, o.pprof)

	switch cmd {
	case "analyze", "partition", "report":
		x, err := load(o.workload, o.in, o.seed)
		if err != nil {
			die(err)
		}
		switch cmd {
		case "analyze":
			rec.Time("analyze", func() { analyze(x) })
		case "partition":
			partition(x, o.partitionOptions(rec), o.verbose)
		default:
			reportMD(x, o.partitionOptions(rec))
		}
	case "example":
		partition(xhybrid.PaperExample(), xhybrid.Options{MISRSize: 10, Q: 2, Stats: rec}, true)
	case "verify":
		verify(o.flowSpec(), o.sweep, o.out, rec)
	case "convert":
		convert(o.workload, o.in, o.seed, o.out)
	default:
		usage()
	}
	finishObs()
}

// startObs assembles the run's observability session from the shared
// flags: a recorder when a breakdown was requested (nil otherwise, which
// disables all recording) and a finish closure that writes profiles and
// prints the snapshot.
func startObs(stats bool, trace, cpuprofile, memprofile, pprofAddr string) (*xhybrid.Stats, func()) {
	format := ""
	if stats {
		format = "text"
	}
	switch trace {
	case "":
	case "text", "json":
		format = trace
	default:
		die(fmt.Errorf("unknown -trace format %q (want text or json)", trace))
	}
	var rec *xhybrid.Stats
	if format != "" {
		rec = xhybrid.NewStats()
	}
	stopProf, err := obs.StartProfiles(cpuprofile, memprofile, pprofAddr)
	if err != nil {
		die(err)
	}
	// Registered with onExit so fatal paths (die, verify's FAIL exit) still
	// stop the CPU profile and write the heap profile; an orderly main
	// calls the same closure, which runs at most once either way.
	return rec, onExit(func() {
		if err := stopProf(); err != nil {
			die(err)
		}
		if rec == nil {
			return
		}
		snap := rec.Snapshot()
		var werr error
		if format == "json" {
			werr = snap.WriteJSON(os.Stdout)
		} else {
			werr = snap.WriteText(os.Stdout)
		}
		if werr != nil {
			die(werr)
		}
	})
}

// reportMD prints a markdown report of the analysis and plan.
func reportMD(x *xhybrid.XLocations, opt xhybrid.Options) {
	a := xhybrid.Analyze(x)
	plan, err := xhybrid.Partition(x, opt)
	if err != nil {
		die(err)
	}
	fmt.Printf("# Hybrid X-handling report\n\n")
	fmt.Printf("## Design\n\n")
	fmt.Printf("| Property | Value |\n|---|---|\n")
	fmt.Printf("| Scan geometry | %d chains x %d cells |\n", x.Chains(), x.ChainLen())
	fmt.Printf("| Test patterns | %d |\n", x.Patterns())
	fmt.Printf("| X values | %d (%.4f%%) |\n", a.TotalX, 100*x.Density())
	fmt.Printf("| X-capturing cells | %d of %d |\n", a.XCells, x.Cells())
	fmt.Printf("| Largest equal-count group | %d cells x %d X's (correlation %.3f) |\n",
		a.LargestGroupSize, a.LargestGroupCount, a.LargestGroupCorrelation)
	fmt.Printf("| 90%% of X's in | %.2f%% of cells |\n", 100*a.CellFractionFor90PctX)
	fmt.Printf("| Spatial adjacency | %.1f%% of X's |\n\n", 100*a.IntraAdjacentFraction)
	fmt.Printf("## Partitioning (%s strategy, m=%d q=%d)\n\n", orDefault(opt.Strategy, "paper"), orZero(opt.MISRSize, 32), orZero(opt.Q, 7))
	fmt.Printf("| Round | Split cell | Cost before | Cost after | Verdict |\n|---|---|---|---|---|\n")
	for _, r := range plan.Rounds {
		v := "accepted"
		if !r.Accepted {
			v = "rejected"
		}
		fmt.Printf("| %d | %d | %d | %d | %s |\n", r.Round, r.SplitCell, r.CostBefore, r.CostAfter, v)
	}
	fmt.Printf("\n| Partition | Patterns | Masked cells | Masked X |\n|---|---|---|---|\n")
	for i, p := range plan.Partitions {
		fmt.Printf("| %d | %d | %d | %d |\n", i+1, len(p.Patterns), len(p.MaskedCells), p.MaskedX)
	}
	fmt.Printf("\n## Control data\n\n")
	fmt.Printf("| Scheme | Bits | vs proposed |\n|---|---|---|\n")
	fmt.Printf("| X-masking only [5] | %d | %.2fx |\n", plan.MaskOnlyBits, plan.ImprovementOverMaskOnly)
	fmt.Printf("| X-canceling only [12] | %d | %.2fx |\n", plan.CancelOnlyBits, plan.ImprovementOverCancelOnly)
	fmt.Printf("| Proposed hybrid | %d | 1.00x |\n", plan.TotalBits)
	fmt.Printf("\nMasked %d of %d X's; residual %d. Normalized test time %.3f (canceling-only %.3f).\n",
		plan.MaskedX, plan.TotalX, plan.ResidualX, plan.TestTimeHybrid, plan.TestTimeCancelOnly)
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

func orZero(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

// verify runs the circuit flow once, or once per worker count listed in
// sweep, prints the summary, writes the JSON report to out when set, and
// ends with the verdict. Runs that diverge are refused before anything is
// reported; a FAIL verdict exits 1.
func verify(spec xhybrid.FlowSpec, sweep, out string, rec *xhybrid.Stats) {
	workers := []int{spec.Workers}
	if sweep != "" {
		workers = nil
		for _, f := range strings.Split(sweep, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || w < 0 {
				die(fmt.Errorf("bad -sweep entry %q", f))
			}
			workers = append(workers, w)
		}
	}
	var reps []*xhybrid.FlowReport
	for _, w := range workers {
		spec.Workers = w
		rep, err := xhybrid.RunFlowCtx(context.Background(), spec, xhybrid.FlowRunConfig{Obs: rec})
		if err != nil {
			die(err)
		}
		if len(reps) > 0 {
			if err := sameOutcome(reps[0], rep); err != nil {
				die(err)
			}
		}
		reps = append(reps, rep)
	}
	// Every run of a sweep agreed on everything but wall time, so one
	// summary and one verdict stand for all of them.
	printFlow(reps[0])
	if sweep != "" {
		fmt.Printf("sweep: workers %s agree on the X-map, plan, replay and coverage\n", sweep)
	}
	if out != "" {
		var v any = reps[0]
		if sweep != "" {
			v = reps
		}
		if err := writeJSON(out, v); err != nil {
			die(err)
		}
	}
	if rep := reps[0]; !rep.Preserved {
		fmt.Println("FAIL:", rep.Violation)
		// Through the cleanup path: a failing verify run must still flush
		// its profiles and stats.
		exit(1)
	}
	fmt.Println("PASS: no observable capture was masked (fault coverage preserved)")
}

// sameOutcome enforces the flow's determinism contract across a sweep: the
// X-map, the plan, the replay and the coverage leg must not depend on the
// worker count.
func sameOutcome(first, rep *xhybrid.FlowReport) error {
	w, fw := rep.Spec.Workers, first.Spec.Workers
	switch {
	case rep.XMapDigest != first.XMapDigest:
		return fmt.Errorf("workers=%d X-map digest %s diverged from workers=%d %s", w, rep.XMapDigest, fw, first.XMapDigest)
	case rep.TotalBits != first.TotalBits || rep.Partitions != first.Partitions || rep.Rounds != first.Rounds:
		return fmt.Errorf("workers=%d plan (%d bits, %d partitions, %d rounds) diverged from workers=%d (%d, %d, %d)",
			w, rep.TotalBits, rep.Partitions, rep.Rounds, fw, first.TotalBits, first.Partitions, first.Rounds)
	case rep.Replay != first.Replay:
		return fmt.Errorf("workers=%d replay %+v diverged from workers=%d %+v", w, rep.Replay, fw, first.Replay)
	case (rep.Coverage == nil) != (first.Coverage == nil) ||
		rep.Coverage != nil && *rep.Coverage != *first.Coverage:
		return fmt.Errorf("workers=%d fault coverage diverged from workers=%d", w, fw)
	}
	return nil
}

// printFlow prints one flow run's summary.
func printFlow(rep *xhybrid.FlowReport) {
	s := rep.Spec
	fmt.Printf("circuit: %d gates, %d scan cells in %d chains; %d patterns, %d X's in %d cells (density %.4f%%)\n",
		rep.Gates, s.Cells, s.Chains, s.Patterns, rep.TotalX, rep.XCells, 100*rep.Density)
	fmt.Printf("plan: %s, m=%d q=%d: %d partitions in %d rounds, %d mask + %d cancel = %d control bits\n",
		s.Strategy, s.MISRSize, s.Q, rep.Partitions, rep.Rounds, rep.MaskBits, rep.CancelBits, rep.TotalBits)
	r := rep.Replay
	fmt.Printf("replay: masked %d X's (%d observable destroyed), %d residual X's into the MISR\n",
		r.MaskedX, r.ObservableMasked, r.ResidualX)
	fmt.Printf("canceling: %d halts (%d planned), %d X-free signatures (%d deficits), %d control bits, time %.3f\n",
		r.Halts, rep.PlannedHalts, r.Signatures, r.Deficits, r.ControlBits, r.NormalizedTime)
	if c := rep.Coverage; c != nil {
		fmt.Printf("coverage: %d of %d fault classes; %d detected fully observed, %d under the masks\n",
			c.Faults, c.Classes, c.BaselineDetected, c.HybridDetected)
	}
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: xhybrid <analyze|partition|report|example|verify|convert> [flags]")
	exit(2)
}

func load(workloadName, inFile string, seed int64) (*xhybrid.XLocations, error) {
	switch {
	case workloadName != "" && inFile != "":
		return nil, fmt.Errorf("use either -workload or -in, not both")
	case workloadName != "":
		return xhybrid.Workload(workloadName, seed)
	case inFile != "":
		f, err := os.Open(inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		switch {
		case strings.HasSuffix(inFile, ".txt"):
			return xhybrid.ReadXLocationsText(f)
		case strings.HasSuffix(inFile, ".xmb") || strings.HasSuffix(inFile, ".bin"):
			return xhybrid.ReadXLocationsBinary(f)
		}
		return xhybrid.ReadXLocations(f)
	}
	return nil, fmt.Errorf("need -workload <name> or -in <file>")
}

// convert re-serializes an X-location map between the three wire formats,
// picking each side's format from its file extension (.txt text, .xmb/.bin
// binary, anything else JSON). An empty or "-" output writes JSON to
// stdout.
func convert(workloadName, inFile string, seed int64, outFile string) {
	x, err := load(workloadName, inFile, seed)
	if err != nil {
		die(err)
	}
	if outFile == "" || outFile == "-" {
		if err := x.WriteJSON(os.Stdout); err != nil {
			die(err)
		}
		return
	}
	w, err := os.Create(outFile)
	if err != nil {
		die(err)
	}
	switch {
	case strings.HasSuffix(outFile, ".txt"):
		err = x.WriteText(w)
	case strings.HasSuffix(outFile, ".xmb") || strings.HasSuffix(outFile, ".bin"):
		err = x.WriteBinary(w)
	default:
		err = x.WriteJSON(w)
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		die(err)
	}
}

func analyze(x *xhybrid.XLocations) {
	a := xhybrid.Analyze(x)
	fmt.Printf("design: %d chains x %d cells, %d patterns\n", x.Chains(), x.ChainLen(), x.Patterns())
	fmt.Printf("total X values:        %d (density %.4f%%)\n", a.TotalX, 100*x.Density())
	fmt.Printf("X-capturing cells:     %d of %d\n", a.XCells, x.Cells())
	fmt.Printf("max X's in one cell:   %d\n", a.MaxCellCount)
	fmt.Printf("largest equal-count group: %d cells with %d X's each\n", a.LargestGroupSize, a.LargestGroupCount)
	fmt.Printf("  inter-correlation:   %.3f (fraction sharing one exact pattern set)\n", a.LargestGroupCorrelation)
	fmt.Printf("90%% of X's lie in %.2f%% of the scan cells\n", 100*a.CellFractionFor90PctX)
}

func partition(x *xhybrid.XLocations, opt xhybrid.Options, verbose bool) {
	plan, err := xhybrid.Partition(x, opt)
	if err != nil {
		die(err)
	}
	// The shared renderer keeps this output byte-identical to the serving
	// layer's format=text responses (see internal/server).
	if err := plan.WriteText(os.Stdout, x, verbose); err != nil {
		die(err)
	}
}
