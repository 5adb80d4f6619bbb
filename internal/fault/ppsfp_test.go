package fault

import (
	"context"
	"sync"
	"testing"

	"xhybrid/internal/atpg"
	"xhybrid/internal/logic"
	"xhybrid/internal/netlist"
	"xhybrid/internal/obs"
	"xhybrid/internal/sim"
)

// blocksOf builds the fault-free blocks PPSFP runs over, as the flow's
// simulate stage does.
func blocksOf(t testing.TB, c *netlist.Circuit, st atpg.Stimuli, workers int) []*sim.Block {
	t.Helper()
	blocks, err := sim.CaptureBlocks(context.Background(), c, st.Loads, st.PIs, workers)
	if err != nil {
		t.Fatal(err)
	}
	return blocks
}

// ppsfpPreds is the predicate matrix the equivalence property runs over:
// full observability, a cell-restricted mask, and a pattern×cell mix — the
// shapes measureCoverage's baseline/hybrid pair takes.
var ppsfpPreds = []struct {
	name string
	obs  Observe
}{
	{"full", nil},
	{"even-cells", func(p, cell int) bool { return cell%2 == 0 }},
	{"mixed", func(p, cell int) bool { return p%3 != 0 || cell%5 == 1 }},
}

// TestPPSFPMatchesSerial is the engine's correctness property: for every
// seeded circuit × observability predicate × worker count, the PPSFP Result
// — Detected and per-fault first detecting pattern — equals the serial
// reference simulator's, with every predicate evaluated in one PPSFP pass.
func TestPPSFPMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := mkCircuit(t, seed)
		// 90 patterns: two blocks, the second partial, so lane masking and
		// cross-block first-detection ordering are both exercised.
		st := atpg.GenerateStimuli(90, len(c.ScanCells), len(c.PIs), uint64(seed+100))
		faults := Sample(AllFaults(c), 80, seed)
		preds := make([]Observe, len(ppsfpPreds))
		serial := make([]*Result, len(ppsfpPreds))
		for j, p := range ppsfpPreds {
			preds[j] = p.obs
			ref, err := Simulate(c, st.Loads, st.PIs, faults, p.obs)
			if err != nil {
				t.Fatal(err)
			}
			serial[j] = ref
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := SimulatePPSFP(context.Background(), c, blocksOf(t, c, st, workers), faults, preds,
				PPSFPOptions{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			for j, p := range ppsfpPreds {
				if got[j].Total != serial[j].Total || got[j].Detected != serial[j].Detected {
					t.Fatalf("seed %d workers %d pred %s: got %d/%d, serial %d/%d",
						seed, workers, p.name, got[j].Detected, got[j].Total, serial[j].Detected, serial[j].Total)
				}
				for fi := range faults {
					if got[j].DetectedBy[fi] != serial[j].DetectedBy[fi] {
						t.Fatalf("seed %d workers %d pred %s fault %v: first detection %d, serial %d",
							seed, workers, p.name, faults[fi], got[j].DetectedBy[fi], serial[j].DetectedBy[fi])
					}
				}
			}
		}
	}
}

func TestPPSFPValidation(t *testing.T) {
	c := mkCircuit(t, 6)
	ctx := context.Background()
	st := atpg.GenerateStimuli(100, len(c.ScanCells), len(c.PIs), 1)
	blocks := blocksOf(t, c, st, 1)
	if _, err := SimulatePPSFP(ctx, c, blocks, nil, nil, PPSFPOptions{}); err == nil {
		t.Fatal("accepted empty predicate list")
	}
	bad := []Def{{Node: c.NumGates(), SA: logic.One}}
	if _, err := SimulatePPSFP(ctx, c, blocks, bad, []Observe{nil}, PPSFPOptions{}); err == nil {
		t.Fatal("accepted out-of-range fault node")
	}
	// Pattern numbering assumes full blocks in order: a partial block may
	// only come last, and every block must be of this circuit.
	if _, err := SimulatePPSFP(ctx, c, []*sim.Block{blocks[1], blocks[0]}, nil, []Observe{nil}, PPSFPOptions{}); err == nil {
		t.Fatal("accepted a partial block before a full one")
	}
	if _, err := SimulatePPSFP(ctx, c, []*sim.Block{blocks[0], nil}, nil, []Observe{nil}, PPSFPOptions{}); err == nil {
		t.Fatal("accepted a nil block")
	}
	other := mkCircuit(t, 7)
	if _, err := SimulatePPSFP(ctx, other, blocks, nil, []Observe{nil}, PPSFPOptions{}); err == nil {
		t.Fatal("accepted blocks of another circuit")
	}
}

func TestPPSFPEmpty(t *testing.T) {
	c := mkCircuit(t, 7)
	res, err := SimulatePPSFP(context.Background(), c, nil, Sample(AllFaults(c), 5, 1), []Observe{nil, nil}, PPSFPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Total != 5 || res[0].Detected != 0 {
		t.Fatalf("zero-pattern result: %+v", res[0])
	}
	for _, by := range res[0].DetectedBy {
		if by != -1 {
			t.Fatal("detection with no patterns")
		}
	}
}

func TestPPSFPCancel(t *testing.T) {
	c := mkCircuit(t, 8)
	st := atpg.GenerateStimuli(64, len(c.ScanCells), len(c.PIs), 3)
	faults := Sample(AllFaults(c), 40, 3)
	blocks := blocksOf(t, c, st, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulatePPSFP(ctx, c, blocks, faults, []Observe{nil}, PPSFPOptions{}); err == nil {
		t.Fatal("canceled context not reported")
	}
}

func TestPPSFPProgressAndCounters(t *testing.T) {
	c := mkCircuit(t, 9)
	st := atpg.GenerateStimuli(64, len(c.ScanCells), len(c.PIs), 5)
	faults := Sample(AllFaults(c), 32, 5)
	rec := obs.New()
	var mu sync.Mutex
	var last int
	calls := 0
	_, err := SimulatePPSFP(context.Background(), c, blocksOf(t, c, st, 2), faults, []Observe{nil},
		PPSFPOptions{Workers: 2, Obs: rec, ProgressEvery: 4, OnProgress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if total != len(faults) || done < 1 || done > total {
				t.Errorf("progress out of range: %d/%d", done, total)
			}
			if done > last {
				last = done
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if last != len(faults) || calls == 0 {
		t.Fatalf("progress never reached total: last %d after %d calls", last, calls)
	}
	snap := rec.Snapshot()
	if got := snap.CounterValue("fault.ppsfp.cones.built"); got != int64(len(faults)) {
		t.Fatalf("cones.built = %d, want %d", got, len(faults))
	}
	if snap.CounterValue("fault.ppsfp.blocks") != 1 {
		t.Fatal("expected one 64-pattern block")
	}
	if snap.CounterValue("fault.ppsfp.gates.evaluated") <= 0 {
		t.Fatal("no gate evaluations counted")
	}
}

// The obs counters, like the results, must not depend on the worker count.
func TestPPSFPCountersDeterministic(t *testing.T) {
	c := mkCircuit(t, 10)
	st := atpg.GenerateStimuli(96, len(c.ScanCells), len(c.PIs), 9)
	faults := Sample(AllFaults(c), 48, 9)
	var want obs.Snapshot
	for i, workers := range []int{1, 4} {
		rec := obs.New()
		if _, err := SimulatePPSFP(context.Background(), c, blocksOf(t, c, st, workers), faults, []Observe{nil, ppsfpPreds[1].obs},
			PPSFPOptions{Workers: workers, Obs: rec}); err != nil {
			t.Fatal(err)
		}
		snap := rec.Snapshot()
		if i == 0 {
			want = snap
			continue
		}
		for _, cs := range want.Counters {
			if got := snap.CounterValue(cs.Name); got != cs.Value {
				t.Fatalf("counter %s: %d at workers=4, %d at workers=1", cs.Name, got, cs.Value)
			}
		}
	}
}
