// Faultcoverage demonstrates the paper's fault-coverage guarantee with real
// fault simulation instead of argument: on a generated gate-level circuit
// with correlated X sources, stuck-at coverage is measured under
//
//  1. full observation of every captured value,
//  2. the proposed partition masks (which only ever cover all-X cells), and
//  3. a lossy threshold mask that also covers mostly-X cells.
//
// The proposed masks lose nothing; the lossy variant pays in coverage —
// which is why the paper refuses to mask any observable value.
//
// Usage: faultcoverage [-cells 96] [-patterns 96] [-faults 160] [-seed 5]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"xhybrid/internal/core"
	"xhybrid/internal/fault"
	"xhybrid/internal/flow"
	"xhybrid/internal/misr"
	"xhybrid/internal/report"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
	"xhybrid/internal/xmask"
)

func main() {
	cells := flag.Int("cells", 96, "scan cells (multiple of 8)")
	patterns := flag.Int("patterns", 32, "test patterns")
	nFaults := flag.Int("faults", 200, "sampled stuck-at faults")
	seed := flag.Int64("seed", 5, "seed")
	lossyFrac := flag.Float64("lossyfrac", 0.05, "threshold fraction for the lossy mask ablation")
	flag.Parse()

	// The flow's front half: generate the circuit, apply LFSR stimuli,
	// simulate and extract the X-map. MISRSize only has to fit the 8 chains
	// here; the plan below sets its own canceling configuration.
	xb, err := flow.BuildXMap(context.Background(), flow.Spec{
		Name:        "covdemo",
		Cells:       *cells,
		Chains:      8,
		XClusters:   5,
		XFanout:     6,
		CircuitSeed: *seed,
		StimSeed:    uint64(*seed),
		Patterns:    *patterns,
		MISRSize:    8,
	})
	if err != nil {
		log.Fatal(err)
	}
	ckt, xm := xb.Circuit, xb.XMap
	fmt.Printf("circuit %s: %d gates, %d scan cells; %d patterns, %d X's (density %s)\n",
		ckt.Name, ckt.NumGates(), len(ckt.ScanCells), xm.Patterns(), xm.TotalX(),
		report.Percent(xm.Density()))

	// Hybrid plan over the measured X-map.
	res, err := core.Run(xm, core.Params{
		Geom:   xb.Geom,
		Cancel: xcancel.Config{MISR: misr.MustStandard(16), Q: 3},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hybrid plan: %d partitions, masked %d of %d X's\n",
		len(res.Partitions), res.MaskedX, res.TotalX)

	// Observability predicates.
	proposed := maskObserver(res.Partitions)
	lossyParts, lost := lossyMasks(xm, res, *lossyFrac)
	fmt.Printf("lossy threshold mask (frac=%.2f): destroys %d observable captures\n", *lossyFrac, lost)

	// The fault-free blocks the responses were gathered from. One PPSFP
	// pass scores all three observability predicates from the same faulty
	// captures.
	faults := fault.Sample(fault.AllFaults(ckt), *nFaults, *seed)
	names := []string{"full (no compaction)", "proposed hybrid masks", "lossy threshold masks"}
	preds := []fault.Observe{nil, proposed, maskObserver(lossyParts)}
	results, err := fault.SimulatePPSFP(context.Background(), ckt, xb.Blocks, faults, preds, fault.PPSFPOptions{})
	if err != nil {
		log.Fatal(err)
	}

	tab := report.New("\nstuck-at coverage", "Observation", "Detected", "Coverage")
	for i, r := range results {
		tab.Row(names[i], fmt.Sprintf("%d/%d", r.Detected, r.Total), report.Percent(r.Coverage()))
	}
	fmt.Println(tab)
	fmt.Println("the proposed masks only remove X's, so coverage matches full observation;")
	fmt.Println("masking observable values (lossy variant) costs real detections.")
}

// maskObserver converts partition masks into a fault.Observe predicate.
func maskObserver(parts []core.Partition) fault.Observe {
	return func(pattern, cell int) bool {
		for _, p := range parts {
			if p.Patterns.Get(pattern) {
				return !p.Mask.Masks(cell)
			}
		}
		return true
	}
}

// lossyMasks rebuilds the final partitions with threshold masks that may
// cover observable values, returning the partitions and the observable
// captures destroyed.
func lossyMasks(m *xmap.XMap, res *core.Result, frac float64) ([]core.Partition, int) {
	out := make([]core.Partition, 0, len(res.Partitions))
	lostTotal := 0
	for _, p := range res.Partitions {
		mask, maskedX, lost := xmask.ThresholdMask(m, p.Patterns, frac)
		lostTotal += lost
		out = append(out, core.Partition{Patterns: p.Patterns, Mask: mask, MaskedX: maskedX})
	}
	return out, lostTotal
}
