package flow

// The front-to-back circuit pipeline: generate a gate-level circuit, run
// LFSR ATPG, simulate the three-valued responses, extract the real
// X-location map, partition it, and replay the plan through the hardware
// models — asserting on the way that the fault-coverage-preservation
// property holds by construction. This is the construction-grade input path
// the synthetic workload profiles approximate; docs/FLOW.md walks through
// every stage, the xhybrid command's verify subcommand drives it from the
// command line, and the serving layer runs it as the /v1/flow job type.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"xhybrid/internal/atpg"
	"xhybrid/internal/core"
	"xhybrid/internal/fault"
	"xhybrid/internal/misr"
	"xhybrid/internal/netlist"
	"xhybrid/internal/obs"
	"xhybrid/internal/scan"
	"xhybrid/internal/sim"
	"xhybrid/internal/tester"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
)

// Spec is the serializable description of one end-to-end flow run: the
// circuit to generate, the stimuli to apply, and the partitioning options.
// Equal specs produce byte-identical reports modulo stage wall times — every
// stage is seeded and the simulation fan-out is position-indexed.
type Spec struct {
	// Name labels the generated circuit (default "flow").
	Name string `json:"name,omitempty"`
	// Cells is the scan-cell count; Chains must divide it (chainLen =
	// Cells/Chains).
	Cells  int `json:"cells"`
	Chains int `json:"chains"`
	// PIs is the primary-input count (default 8).
	PIs int `json:"pis,omitempty"`
	// GatesPerCell scales the combinational cloud (generator default 3.0).
	GatesPerCell float64 `json:"gatesPerCell,omitempty"`
	// XClusters / XFanout / EnableTaps / DropoutPerMille shape the X
	// structure (see netlist.GenConfig).
	XClusters       int `json:"xclusters"`
	XFanout         int `json:"xfanout,omitempty"`
	EnableTaps      int `json:"enableTaps,omitempty"`
	DropoutPerMille int `json:"dropoutPerMille,omitempty"`
	// CircuitSeed drives circuit generation; StimSeed drives the ATPG LFSR.
	CircuitSeed int64  `json:"circuitSeed,omitempty"`
	StimSeed    uint64 `json:"stimSeed,omitempty"`
	// Patterns is the test-pattern count (default 256).
	Patterns int `json:"patterns,omitempty"`

	// MISRSize / Q / Strategy / Seed / MaxRounds mirror the partitioning
	// options (defaults m=32, q=7, strategy paper). MISRSize must not exceed
	// Chains — the spatial compactor folds chains onto the MISR inputs.
	MISRSize  int    `json:"m,omitempty"`
	Q         int    `json:"q,omitempty"`
	Strategy  string `json:"strategy,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	MaxRounds int    `json:"maxRounds,omitempty"`
	// Workers bounds the simulation and partitioning fan-out (0 = all CPUs).
	// Reports are identical for any worker count.
	Workers int `json:"workers,omitempty"`

	// FaultSample, when positive, runs PPSFP stuck-at fault simulation over
	// that many faults sampled from the collapsed (equivalence-class
	// representative) fault list, evaluating full observability and the
	// plan's masks in one pass and asserting the coverages are equal.
	// 0 skips the fault stage unless FaultFull is set.
	FaultSample int   `json:"faultSample,omitempty"`
	FaultSeed   int64 `json:"faultSeed,omitempty"`
	// FaultFull simulates the entire collapsed fault list, ignoring
	// FaultSample — the exhaustive coverage check.
	FaultFull bool `json:"faultFull,omitempty"`
	// FaultWorkers bounds the fault-parallel fan-out of the faultsim stage
	// (0 = inherit Workers). Coverage is byte-identical at any worker count.
	FaultWorkers int `json:"faultWorkers,omitempty"`
}

// Normalize fills defaults in place.
func (s *Spec) Normalize() {
	if s.Name == "" {
		s.Name = "flow"
	}
	if s.PIs == 0 {
		s.PIs = 8
	}
	if s.Patterns == 0 {
		s.Patterns = 256
	}
	if s.MISRSize == 0 {
		s.MISRSize = 32
	}
	if s.Q == 0 {
		s.Q = 7
	}
	if strat, err := core.LookupStrategy(s.Strategy); err == nil {
		// Canonicalize (""->paper, legacy greedy->greedy-cost) so equal
		// specs spool and report equally; unknown names are left for
		// Validate to reject.
		s.Strategy = strat.Name()
	}
}

// Validate rejects specs the pipeline cannot run. Call Normalize first.
func (s *Spec) Validate() error {
	if s.Cells < 2 {
		return fmt.Errorf("flow: need at least 2 scan cells, got %d", s.Cells)
	}
	if s.Chains < 1 {
		return fmt.Errorf("flow: need at least 1 chain, got %d", s.Chains)
	}
	if s.Cells%s.Chains != 0 {
		return fmt.Errorf("flow: %d chains do not divide %d cells", s.Chains, s.Cells)
	}
	if s.PIs < 1 {
		return fmt.Errorf("flow: need at least 1 primary input, got %d", s.PIs)
	}
	if s.Patterns < 1 {
		return fmt.Errorf("flow: need at least 1 pattern, got %d", s.Patterns)
	}
	if s.MISRSize > s.Chains {
		return fmt.Errorf("flow: %d-bit MISR wider than %d chains; pick m <= chains", s.MISRSize, s.Chains)
	}
	if s.FaultSample < 0 {
		return fmt.Errorf("flow: negative fault sample %d", s.FaultSample)
	}
	if s.FaultWorkers < 0 {
		return fmt.Errorf("flow: negative fault workers %d", s.FaultWorkers)
	}
	if _, err := s.strategy(); err != nil {
		return err
	}
	return nil
}

// strategy resolves the wire name through the core registry (the same
// vocabulary as every other surface).
func (s *Spec) strategy() (core.Strategy, error) {
	strat, err := core.LookupStrategy(s.Strategy)
	if err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	return strat, nil
}

// RunConfig carries the per-run (non-serialized) knobs of RunSpec.
type RunConfig struct {
	// Obs receives per-stage spans and the engine's counters; nil disables.
	Obs *obs.Recorder
	// OnStage, when set, is called with each stage's name as it starts —
	// the /v1/flow SSE progress hook. During the faultsim stage it is also
	// called with per-batch "faultsim done/total" progress strings, possibly
	// concurrently from several fault workers; implementations must be safe
	// for that (the jobs layer's atomic stage store is).
	OnStage func(name string)
}

// StageTime records one pipeline stage's wall time.
type StageTime struct {
	Name   string  `json:"name"`
	Millis float64 `json:"millis"`
}

// ReplaySummary is the hardware-model replay leg of a Report.
type ReplaySummary struct {
	// ObservableMasked counts known captures destroyed by masks; coverage
	// preservation demands zero.
	ObservableMasked int `json:"observableMasked"`
	// MaskedX is the mask stage's measured effect (must equal the plan's
	// accounting).
	MaskedX int `json:"maskedX"`
	// ResidualX is what reached the MISR after masking and compaction
	// (compaction can fold X's, so <= the accounting residual).
	ResidualX int `json:"residualX"`
	// Halts / Signatures / Deficits / ControlBits summarize the canceling
	// sessions actually run.
	Halts       int `json:"halts"`
	Signatures  int `json:"signatures"`
	Deficits    int `json:"deficits"`
	ControlBits int `json:"controlBits"`
	// NormalizedTime is the measured shift+halt time over shift time.
	NormalizedTime float64 `json:"normalizedTime"`
	// FinalSignature is the end-of-test MISR signature.
	FinalSignature uint64 `json:"finalSignature"`
}

// Coverage is the optional fault-simulation leg of a Report: one PPSFP pass
// over a (collapsed) fault list, scoring full observability and the plan's
// masks from the same faulty captures.
type Coverage struct {
	// AllFaults is the uncollapsed circuit-wide fault count; Classes is the
	// number of equivalence classes after collapsing buffer/inverter
	// chains. Faults is what was actually simulated: min(FaultSample,
	// Classes) class representatives, or all of them under FaultFull.
	AllFaults        int     `json:"allFaults"`
	Classes          int     `json:"classes"`
	Faults           int     `json:"faults"`
	BaselineDetected int     `json:"baselineDetected"`
	HybridDetected   int     `json:"hybridDetected"`
	Baseline         float64 `json:"baseline"`
	Hybrid           float64 `json:"hybrid"`
	// Preserved is BaselineDetected == HybridDetected — the paper's claim,
	// measured.
	Preserved bool `json:"preserved"`
}

// Report is the JSON outcome of one RunSpec: circuit and X-map statistics,
// the plan's control-bit accounting, the replay measurements, optional
// fault coverage, and per-stage timing. BENCH_flow.json rows are Reports.
type Report struct {
	Spec Spec `json:"spec"`

	// Gates counts every node of the generated circuit (inputs, logic,
	// storage); ChainLen is Cells/Chains.
	Gates    int `json:"gates"`
	ChainLen int `json:"chainLen"`

	// XCells / TotalX / Density describe the extracted X-map; XMapDigest is
	// the sha256 of its canonical XMAPB encoding (byte-identical for any
	// worker count).
	XCells     int     `json:"xCells"`
	TotalX     int     `json:"totalX"`
	Density    float64 `json:"density"`
	XMapDigest string  `json:"xmapDigest"`

	// Plan accounting (core.Result).
	Partitions int `json:"partitions"`
	Rounds     int `json:"rounds"`
	MaskedX    int `json:"maskedX"`
	ResidualX  int `json:"residualX"`
	MaskBits   int `json:"maskBits"`
	CancelBits int `json:"cancelBits"`
	TotalBits  int `json:"totalBits"`
	// PlannedHalts is the closed-form halt budget the schedule reserves for
	// the accounting residual; the replayed halts must fit in it.
	PlannedHalts int `json:"plannedHalts"`

	Replay   ReplaySummary `json:"replay"`
	Coverage *Coverage     `json:"coverage,omitempty"`

	// Preserved is the composite end-to-end verdict: the replay verdict
	// held (no observable capture masked, mask effect exactly as
	// accounted, residual and halts within the planned schedule — see
	// VerifyReport.Violation) and, when fault simulation ran, coverage is
	// identical with and without the masks.
	Preserved bool `json:"preserved"`
	// Violation says why Preserved is false: the first broken replay
	// clause, or else the coverage change. Empty when Preserved.
	Violation string `json:"violation,omitempty"`

	Stages []StageTime `json:"stages"`
}

// XMapBuild is the product of the pipeline's front half (stages 1-4): the
// generated circuit, its scan geometry, the fault-free machine's evaluated
// 64-pattern blocks, the three-valued responses unpacked from them, and the
// X-map extracted from those with its canonical XMAPB digest. Everything
// downstream — partitioning, replay, fault simulation — consumes only
// these; fault simulation reuses the blocks instead of simulating the
// circuit again.
type XMapBuild struct {
	Circuit   *netlist.Circuit
	Geom      scan.Geometry
	Blocks    []*sim.Block
	Responses *scan.ResponseSet
	XMap      *xmap.XMap
	Digest    string
}

// BuildXMap runs the deterministic front half of the pipeline — generate,
// ATPG, simulate, extract — for a spec and returns the X-map with its
// provenance. It is the entry point for tools that want real X-maps
// without committing to one partitioning strategy (stratbench races many
// strategies over a single build). The spec is normalized and validated
// first; equal specs produce byte-identical X-maps at any worker count.
func BuildXMap(ctx context.Context, spec Spec) (*XMapBuild, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return BuildXMapStaged(ctx, spec, nil)
}

// BuildXMapStaged is BuildXMap with a per-stage timing hook: stage(name) is
// called as each stage starts and the returned func at its end. A nil stage
// skips instrumentation. The spec must already be normalized and valid.
func BuildXMapStaged(ctx context.Context, spec Spec, stage func(name string) func()) (*XMapBuild, error) {
	if stage == nil {
		stage = func(string) func() { return func() {} }
	}

	// Stage 1: generate the circuit.
	end := stage("generate")
	ckt, err := netlist.Generate(netlist.GenConfig{
		Name:            spec.Name,
		ScanCells:       spec.Cells,
		PIs:             spec.PIs,
		GatesPerCell:    spec.GatesPerCell,
		XClusters:       spec.XClusters,
		XFanout:         spec.XFanout,
		EnableTaps:      spec.EnableTaps,
		DropoutPerMille: spec.DropoutPerMille,
		Seed:            spec.CircuitSeed,
	})
	end()
	if err != nil {
		return nil, err
	}
	chainLen := spec.Cells / spec.Chains
	geom := scan.MustGeometry(spec.Chains, chainLen)

	// Stage 2: LFSR ATPG.
	end = stage("atpg")
	st := atpg.GenerateStimuli(spec.Patterns, len(ckt.ScanCells), len(ckt.PIs), spec.StimSeed)
	end()

	// Stage 3: three-valued simulation, fanned out over 64-pattern blocks.
	end = stage("simulate")
	blocks, set, err := simulate(ctx, ckt, geom, st, spec.Workers)
	end()
	if err != nil {
		return nil, err
	}

	// Stage 4: extract the X-map and its canonical digest.
	end = stage("extract")
	m := xmap.FromResponses(set)
	digest := sha256.New()
	err = xmap.WriteBinary(digest, m, spec.Chains, chainLen)
	end()
	if err != nil {
		return nil, err
	}
	return &XMapBuild{
		Circuit:   ckt,
		Geom:      geom,
		Blocks:    blocks,
		Responses: set,
		XMap:      m,
		Digest:    hex.EncodeToString(digest.Sum(nil)),
	}, nil
}

// RunSpec executes the full pipeline for the spec. The returned report is
// deterministic apart from Stages wall times; a non-nil error means a stage
// failed or a preservation assertion did not hold structurally (geometry or
// pattern-count mismatches) — soft preservation verdicts land in
// Report.Preserved instead.
func RunSpec(ctx context.Context, spec Spec, cfg RunConfig) (*Report, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	strat, err := spec.strategy()
	if err != nil {
		return nil, err
	}
	rep := &Report{Spec: spec, ChainLen: spec.Cells / spec.Chains}
	stage := func(name string) func() {
		if cfg.OnStage != nil {
			cfg.OnStage(name)
		}
		endSpan := cfg.Obs.Span("flow." + name)
		t0 := time.Now()
		return func() {
			endSpan()
			rep.Stages = append(rep.Stages, StageTime{
				Name:   name,
				Millis: float64(time.Since(t0)) / float64(time.Millisecond),
			})
		}
	}

	// Stages 1-4: circuit, stimuli, simulation, X-map.
	xb, err := BuildXMapStaged(ctx, spec, stage)
	if err != nil {
		return nil, err
	}
	ckt, geom, set, m := xb.Circuit, xb.Geom, xb.Responses, xb.XMap
	faultsim := spec.FaultSample > 0 || spec.FaultFull
	var blocks []*sim.Block // the fault-free machine, kept only for faultsim
	if faultsim {
		blocks = xb.Blocks
	}
	rep.Gates = len(ckt.Gates)
	rep.XCells = m.NumXCells()
	rep.TotalX = m.TotalX()
	rep.Density = m.Density()
	rep.XMapDigest = xb.Digest

	// Stage 5: partition and assemble the tester program.
	end := stage("partition")
	mcfg, err := misr.Standard(spec.MISRSize)
	if err != nil {
		end()
		return nil, err
	}
	prog, err := BuildCtx(ctx, m, core.Params{
		Geom:      geom,
		Cancel:    xcancel.Config{MISR: mcfg, Q: spec.Q},
		Strategy:  strat,
		Seed:      spec.Seed,
		MaxRounds: spec.MaxRounds,
		Workers:   spec.Workers,
		Obs:       cfg.Obs,
	}, tester.Config{Channels: spec.MISRSize, OverlapMaskLoad: true})
	end()
	if err != nil {
		return nil, err
	}
	acct := prog.Accounting
	rep.Partitions = len(acct.Partitions)
	rep.Rounds = len(acct.Rounds)
	rep.MaskedX = acct.MaskedX
	rep.ResidualX = acct.ResidualX
	rep.MaskBits = acct.MaskBits
	rep.CancelBits = acct.CancelBits
	rep.TotalBits = acct.TotalBits
	rep.PlannedHalts = prog.PlannedHalts

	// Stage 6: replay the captured responses through the hardware models.
	end = stage("replay")
	vr, err := VerifyResponses(prog, set)
	end()
	if err != nil {
		return nil, err
	}
	rep.Replay = ReplaySummary{
		ObservableMasked: vr.ObservableMasked,
		MaskedX:          vr.MaskedX,
		ResidualX:        vr.ResidualX,
		Halts:            vr.Halts,
		Signatures:       vr.Signatures,
		Deficits:         vr.Deficits,
		ControlBits:      vr.ControlBits,
		NormalizedTime:   vr.NormalizedTime,
		FinalSignature:   vr.FinalSignature,
	}

	// Stage 7 (optional): fault simulation with and without the masks.
	if faultsim {
		end = stage("faultsim")
		cov, err := measureCoverage(ctx, ckt, blocks, prog, spec, cfg)
		end()
		if err != nil {
			return nil, err
		}
		rep.Coverage = cov
	}
	rep.judge(vr.Violation)
	return rep, nil
}

// judge sets the composite verdict from the replay verdict and the
// coverage leg: Violation names the first broken replay clause or, with
// the replay sound, a coverage change; Preserved is its absence.
func (rep *Report) judge(replay error) {
	switch cov := rep.Coverage; {
	case replay != nil:
		rep.Violation = replay.Error()
	case cov != nil && !cov.Preserved:
		rep.Violation = fmt.Sprintf("masks changed fault coverage: %d of %d faults detected fully observed, %d under the masks",
			cov.BaselineDetected, cov.Faults, cov.HybridDetected)
	}
	rep.Preserved = rep.Violation == ""
}

// simulate evaluates the fault-free machine over every pattern in 64-pattern
// blocks (sim.CaptureBlocks: position-indexed, so identical at any worker
// count) and unpacks the response set from the blocks in pattern order.
func simulate(ctx context.Context, ckt *netlist.Circuit, geom scan.Geometry, st atpg.Stimuli, workers int) ([]*sim.Block, *scan.ResponseSet, error) {
	blocks, err := sim.CaptureBlocks(ctx, ckt, st.Loads, st.PIs, workers)
	if err != nil {
		return nil, nil, err
	}
	set := scan.NewResponseSet(geom)
	set.Responses = make([]scan.Response, 0, len(st.Loads))
	for _, blk := range blocks {
		for _, cap := range blk.Captures() {
			if err := set.Append(scan.Response{Geom: geom, Values: cap}); err != nil {
				return nil, nil, err
			}
		}
	}
	return blocks, set, nil
}

// measureCoverage runs one PPSFP pass over the collapsed fault list and
// scores two observability predicates from the same faulty captures: full
// observability, and the plan's masks (a cell is unobservable for a pattern
// exactly when the mask of that pattern's partition covers it). The masks
// only ever cover cells that capture X under every pattern of their
// partition, and X captures never contribute to detection, so the two
// coverages must be equal — that equality is the paper's coverage claim,
// measured on the construction-grade input. Collapsing first means the
// sample budget is spent on structurally distinct faults, not
// buffer/inverter-chain equivalents. blocks is the simulate stage's
// fault-free machine; the faulty machines are evaluated cone by cone
// against it.
func measureCoverage(ctx context.Context, ckt *netlist.Circuit, blocks []*sim.Block, prog *Program, spec Spec, cfg RunConfig) (*Coverage, error) {
	reps, all := fault.CollapsedFaults(ckt)
	faults := reps
	if !spec.FaultFull {
		faults = fault.Sample(reps, spec.FaultSample, spec.FaultSeed)
	}
	partOf := make([]int, len(prog.PatternOrder))
	for i, part := range prog.Partitions {
		part.Patterns.ForEach(func(p int) { partOf[p] = i })
	}
	observe := func(pattern, cell int) bool {
		return !prog.Partitions[partOf[pattern]].Mask.Cells.Get(cell)
	}
	opt := fault.PPSFPOptions{
		Workers: spec.FaultWorkers,
		Obs:     cfg.Obs,
	}
	if opt.Workers == 0 {
		opt.Workers = spec.Workers
	}
	if cfg.OnStage != nil {
		opt.OnProgress = func(done, total int) {
			cfg.OnStage(fmt.Sprintf("faultsim %d/%d", done, total))
		}
	}
	res, err := fault.SimulatePPSFP(ctx, ckt, blocks, faults, []fault.Observe{nil, observe}, opt)
	if err != nil {
		return nil, err
	}
	baseline, hybrid := res[0], res[1]
	return &Coverage{
		AllFaults:        all,
		Classes:          len(reps),
		Faults:           baseline.Total,
		BaselineDetected: baseline.Detected,
		HybridDetected:   hybrid.Detected,
		Baseline:         baseline.Coverage(),
		Hybrid:           hybrid.Coverage(),
		Preserved:        hybrid.Detected == baseline.Detected,
	}, nil
}
