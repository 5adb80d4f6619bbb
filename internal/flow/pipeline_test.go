package flow

import (
	"context"
	"strings"
	"sync"
	"testing"

	"xhybrid/internal/atpg"
	"xhybrid/internal/logic"
	"xhybrid/internal/netlist"
	"xhybrid/internal/obs"
	"xhybrid/internal/scan"
	"xhybrid/internal/sim"
	"xhybrid/internal/xmap"
)

// testSpec is the small deterministic pipeline spec the tests share: big
// enough for real X structure and more than one 64-pattern simulation
// block, small enough to run in well under a second.
func testSpec() Spec {
	return Spec{
		Cells:       256,
		Chains:      16,
		XClusters:   8,
		CircuitSeed: 5,
		StimSeed:    9,
		Patterns:    96,
		MISRSize:    8,
		Q:           2,
		Strategy:    "greedy",
	}
}

// TestRunSpecSpansOpenOnce runs one traced flow through every stage,
// faultsim included, and requires each span to be opened exactly once: a
// stage's span belongs to the stage wrapper, and nothing inside the stage
// may open the same name again.
func TestRunSpecSpansOpenOnce(t *testing.T) {
	spec := testSpec()
	spec.FaultSample = 20
	rec := obs.New()
	if _, err := RunSpec(context.Background(), spec, RunConfig{Obs: rec}); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	for _, name := range []string{"flow.replay", "flow.faultsim"} {
		if _, ok := snap.SpanByName(name); !ok {
			t.Fatalf("no %s span recorded", name)
		}
	}
	for _, sp := range snap.Spans {
		if sp.Count != 1 {
			t.Errorf("span %s opened %d times", sp.Name, sp.Count)
		}
	}
}

// goldenXMapDigest is the sha256 of testSpec's canonical XMAPB encoding.
// It pins the whole front half of the pipeline — circuit generation, ATPG,
// three-valued simulation and X-map extraction — to an exact artifact: any
// unintended change to any of those stages moves this digest.
const goldenXMapDigest = "6a4532c11fbf20a726c587792122598afc28a331f8f9fd1b44d8cdf907c6870f"

func TestRunSpecEndToEnd(t *testing.T) {
	spec := testSpec()
	spec.FaultSample = 60
	spec.FaultSeed = 3
	var mu sync.Mutex
	var stages []string
	rep, err := RunSpec(context.Background(), spec, RunConfig{OnStage: func(name string) {
		mu.Lock()
		stages = append(stages, name)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	progress := 0
	for _, s := range stages {
		if strings.HasPrefix(s, "faultsim ") && strings.HasSuffix(s, "/60") {
			progress++
		}
	}
	if progress == 0 {
		t.Fatalf("no per-batch faultsim progress on OnStage; saw %v", stages)
	}
	if rep.TotalX == 0 || rep.XCells == 0 {
		t.Fatal("pipeline extracted no X's; the spec should produce X structure")
	}
	if !rep.Preserved {
		t.Fatalf("end-to-end preservation verdict false: replay %+v coverage %+v", rep.Replay, rep.Coverage)
	}
	if rep.Replay.ObservableMasked != 0 {
		t.Fatalf("masks destroyed %d observable captures", rep.Replay.ObservableMasked)
	}
	if rep.Replay.MaskedX != rep.MaskedX {
		t.Fatalf("replayed MaskedX %d != accounting %d", rep.Replay.MaskedX, rep.MaskedX)
	}
	if rep.Replay.Halts > rep.PlannedHalts {
		t.Fatalf("replayed %d halts exceed planned budget %d", rep.Replay.Halts, rep.PlannedHalts)
	}
	if rep.Coverage == nil {
		t.Fatal("FaultSample > 0 but no coverage leg in the report")
	}
	if !rep.Coverage.Preserved || rep.Coverage.HybridDetected != rep.Coverage.BaselineDetected {
		t.Fatalf("coverage not preserved: baseline %d, hybrid %d",
			rep.Coverage.BaselineDetected, rep.Coverage.HybridDetected)
	}
	if rep.Coverage.BaselineDetected == 0 {
		t.Fatal("fault simulation detected nothing; the coverage check is vacuous")
	}
	if rep.Coverage.AllFaults == 0 || rep.Coverage.Classes == 0 {
		t.Fatalf("collapse accounting missing: %+v", rep.Coverage)
	}
	if rep.Coverage.Classes >= rep.Coverage.AllFaults {
		t.Fatalf("collapsing removed nothing: %d classes of %d faults",
			rep.Coverage.Classes, rep.Coverage.AllFaults)
	}
	if rep.Coverage.Faults != spec.FaultSample {
		t.Fatalf("simulated %d faults, want the %d-fault sample", rep.Coverage.Faults, spec.FaultSample)
	}
	wantStages := []string{"generate", "atpg", "simulate", "extract", "partition", "replay", "faultsim"}
	if len(rep.Stages) != len(wantStages) {
		t.Fatalf("stages = %v, want %v", rep.Stages, wantStages)
	}
	for i, st := range rep.Stages {
		if st.Name != wantStages[i] {
			t.Fatalf("stage %d = %q, want %q", i, st.Name, wantStages[i])
		}
	}
}

// TestRunSpecGoldenAcrossWorkers is the determinism contract: the same spec
// run at workers 1, 2 and 4 must extract the byte-identical XMAPB artifact
// (same sha256 digest) and land on the identical plan and replay.
func TestRunSpecGoldenAcrossWorkers(t *testing.T) {
	var first *Report
	for _, w := range []int{1, 2, 4} {
		spec := testSpec()
		spec.Workers = w
		rep, err := RunSpec(context.Background(), spec, RunConfig{})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if rep.XMapDigest != goldenXMapDigest {
			t.Errorf("workers=%d X-map digest = %s, want golden %s", w, rep.XMapDigest, goldenXMapDigest)
		}
		if first == nil {
			first = rep
			continue
		}
		if rep.TotalBits != first.TotalBits || rep.Partitions != first.Partitions || rep.Rounds != first.Rounds {
			t.Errorf("workers=%d plan (%d bits, %d partitions, %d rounds) diverged from workers=1 (%d, %d, %d)",
				w, rep.TotalBits, rep.Partitions, rep.Rounds,
				first.TotalBits, first.Partitions, first.Rounds)
		}
		if rep.Replay != first.Replay {
			t.Errorf("workers=%d replay %+v diverged from workers=1 %+v", w, rep.Replay, first.Replay)
		}
	}
}

// TestCoverageGoldenAcrossFaultWorkers extends the determinism contract to
// the faultsim stage: the Coverage leg must be byte-identical at any
// fault-worker count.
func TestCoverageGoldenAcrossFaultWorkers(t *testing.T) {
	var first *Coverage
	for _, w := range []int{1, 2, 4, 8} {
		spec := testSpec()
		spec.FaultSample = 80
		spec.FaultSeed = 11
		spec.FaultWorkers = w
		rep, err := RunSpec(context.Background(), spec, RunConfig{})
		if err != nil {
			t.Fatalf("fault workers=%d: %v", w, err)
		}
		if rep.Coverage == nil {
			t.Fatal("no coverage leg")
		}
		if first == nil {
			first = rep.Coverage
			continue
		}
		if *rep.Coverage != *first {
			t.Errorf("fault workers=%d coverage %+v diverged from workers=1 %+v", w, *rep.Coverage, *first)
		}
	}
}

// TestCoverageGolden pins the faultsim stage's values, not just their
// agreement across worker counts: the X-map digest and the Coverage counts
// of a sampled and an exhaustive spec at fault workers 1 and 4, so a change
// to how the good machine is shared or the sample is drawn cannot move
// them unnoticed.
func TestCoverageGolden(t *testing.T) {
	cases := []struct {
		name   string
		spec   Spec
		digest string
		want   [5]int // AllFaults, Classes, Faults, BaselineDetected, HybridDetected
	}{
		{"mid-sample", Spec{Cells: 4096, Chains: 64, XClusters: 96, Patterns: 256, CircuitSeed: 1, StimSeed: 1,
			FaultSample: 100, FaultSeed: 1},
			"3e419a488eac0fa672b8a8f57739953d148b141f48b2b63bc837778da98e1796",
			[5]int{25884, 25390, 100, 76, 76}},
		{"1k-full", Spec{Cells: 1024, Chains: 32, XClusters: 24, Patterns: 128, MISRSize: 16, CircuitSeed: 1, StimSeed: 1,
			FaultFull: true},
			"5285337962b6b867da5cad0bf9aaecf6c9f48a30397ac4a7543eb1430be48ebe",
			[5]int{6476, 6348, 6348, 4694, 4694}},
	}
	for _, tc := range cases {
		for _, w := range []int{1, 4} {
			spec := tc.spec
			spec.FaultWorkers = w
			rep, err := RunSpec(context.Background(), spec, RunConfig{})
			if err != nil {
				t.Fatalf("%s fault workers=%d: %v", tc.name, w, err)
			}
			if rep.XMapDigest != tc.digest {
				t.Errorf("%s fault workers=%d: digest %s, want %s", tc.name, w, rep.XMapDigest, tc.digest)
			}
			c := rep.Coverage
			if c == nil {
				t.Fatalf("%s: no coverage leg", tc.name)
			}
			if got := [5]int{c.AllFaults, c.Classes, c.Faults, c.BaselineDetected, c.HybridDetected}; got != tc.want {
				t.Errorf("%s fault workers=%d: coverage %v, want %v", tc.name, w, got, tc.want)
			}
		}
	}
}

// TestRunSpecFaultFull runs the exhaustive coverage check: every collapsed
// fault class simulated, FaultSample ignored.
func TestRunSpecFaultFull(t *testing.T) {
	spec := testSpec()
	spec.FaultFull = true
	rep, err := RunSpec(context.Background(), spec, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cov := rep.Coverage
	if cov == nil {
		t.Fatal("FaultFull set but no coverage leg in the report")
	}
	if cov.Faults != cov.Classes {
		t.Fatalf("full run simulated %d faults, want all %d classes", cov.Faults, cov.Classes)
	}
	if !cov.Preserved || !rep.Preserved {
		t.Fatalf("full-fault-list coverage not preserved: %+v", cov)
	}
}

// TestXMapMatchesSerialSim is the property check on the extraction stage:
// the X-map the parallel pipeline records must agree exactly, per (pattern,
// cell), with a from-scratch scalar three-valued simulation — every
// recorded X re-simulates as X, and no captured X goes unrecorded.
func TestXMapMatchesSerialSim(t *testing.T) {
	spec := testSpec()
	spec.Normalize()
	ckt, err := netlist.Generate(netlist.GenConfig{
		Name: spec.Name, ScanCells: spec.Cells, PIs: spec.PIs,
		XClusters: spec.XClusters, Seed: spec.CircuitSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	geom := scan.MustGeometry(spec.Chains, spec.Cells/spec.Chains)
	st := atpg.GenerateStimuli(spec.Patterns, len(ckt.ScanCells), len(ckt.PIs), spec.StimSeed)
	_, set, err := simulate(context.Background(), ckt, geom, st, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := xmap.FromResponses(set)
	if m.TotalX() == 0 {
		t.Fatal("no X's extracted; the property check is vacuous")
	}
	ser := sim.New(ckt)
	for p := 0; p < spec.Patterns; p++ {
		capture, _, err := ser.Capture(st.Loads[p], st.PIs[p], sim.NoFault)
		if err != nil {
			t.Fatal(err)
		}
		for cell := 0; cell < spec.Cells; cell++ {
			serialX := capture[cell] == logic.X
			if m.Has(p, cell) != serialX {
				t.Fatalf("pattern %d cell %d: xmap says X=%v, scalar simulation says X=%v",
					p, cell, m.Has(p, cell), serialX)
			}
		}
	}
}

func TestRunSpecValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"too few cells", func(s *Spec) { s.Cells = 1 }},
		{"chains do not divide cells", func(s *Spec) { s.Chains = 7 }},
		{"negative pattern count", func(s *Spec) { s.Patterns = -1 }},
		{"misr wider than chains", func(s *Spec) { s.MISRSize = 64 }},
		{"unknown strategy", func(s *Spec) { s.Strategy = "divine" }},
		{"negative fault sample", func(s *Spec) { s.FaultSample = -1 }},
		{"negative fault workers", func(s *Spec) { s.FaultWorkers = -2 }},
	}
	for _, tc := range cases {
		spec := testSpec()
		tc.mutate(&spec)
		if _, err := RunSpec(context.Background(), spec, RunConfig{}); err == nil {
			t.Errorf("%s: RunSpec accepted the spec", tc.name)
		} else if !strings.HasPrefix(err.Error(), "flow:") {
			t.Errorf("%s: error %q does not carry the flow: prefix", tc.name, err)
		}
	}
}

func TestRunSpecCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSpec(ctx, testSpec(), RunConfig{}); err == nil {
		t.Fatal("RunSpec ignored a canceled context")
	}
}
