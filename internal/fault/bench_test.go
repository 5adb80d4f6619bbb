package fault

import (
	"context"
	"testing"

	"xhybrid/internal/atpg"
	"xhybrid/internal/netlist"
	"xhybrid/internal/sim"
)

// BenchmarkFaultSim is the CI-gated PPSFP benchmark: a flow-shaped workload
// (1024-cell circuit, 128 patterns, collapsed 200-fault sample, dual
// observability) pinned to one worker so the number is a kernel measurement,
// not a scheduling one. Each iteration builds the fault-free blocks and then
// runs PPSFP over them, the work one SimulatePPSFP call did when it
// simulated the good machine itself, so the gate keeps comparing like with
// like. The bench-regress CI job fails a >20% median regression against
// the merge base.
func BenchmarkFaultSim(b *testing.B) {
	c, err := netlist.Generate(netlist.GenConfig{
		Name:      "bench",
		ScanCells: 1024,
		PIs:       16,
		XClusters: 20,
		XFanout:   16,
		Seed:      42,
	})
	if err != nil {
		b.Fatal(err)
	}
	st := atpg.GenerateStimuli(128, len(c.ScanCells), len(c.PIs), 7)
	reps := Representatives(Collapse(c, AllFaults(c)))
	faults := Sample(reps, 200, 1)
	preds := []Observe{nil, func(p, cell int) bool { return cell%2 == 0 }}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blocks, err := sim.CaptureBlocks(ctx, c, st.Loads, st.PIs, 1)
		if err != nil {
			b.Fatal(err)
		}
		res, err := SimulatePPSFP(ctx, c, blocks, faults, preds, PPSFPOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res[0].Detected == 0 {
			b.Fatal("no detections")
		}
	}
}
