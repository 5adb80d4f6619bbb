package main

import (
	"fmt"
	"io"
	"math/rand"

	"xhybrid/internal/core"
	"xhybrid/internal/logic"
	"xhybrid/internal/misr"
	"xhybrid/internal/report"
	"xhybrid/internal/scan"
	"xhybrid/internal/superset"
	"xhybrid/internal/tester"
	"xhybrid/internal/workload"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmask"
)

func runAblation(w io.Writer, name string, scale int) error {
	if scale < 4 {
		// Ablations sweep many configurations; keep them quick by default.
		scale = 4
	}
	switch name {
	case "strategies":
		return ablStrategies(w, scale)
	case "rounding":
		return ablRounding(w)
	case "granularity":
		return ablGranularity(w, scale)
	case "shadow":
		return ablShadow(w, scale)
	case "qsweep":
		return ablQSweep(w, scale)
	case "correlation":
		return ablCorrelation(w, scale)
	case "superset":
		return ablSuperset(w, scale)
	case "encoding":
		return ablEncoding(w, scale)
	case "ordering":
		return ablOrdering(w, scale)
	case "aliasing":
		return ablAliasing(w, scale)
	case "compressedcost":
		return ablCompressedCost(w, scale)
	case "all":
		for _, f := range []func(io.Writer, int) error{
			ablStrategies, ablGranularity, ablShadow, ablQSweep,
			ablCorrelation, ablSuperset, ablEncoding, ablOrdering,
			ablAliasing, ablCompressedCost,
		} {
			if err := f(w, scale); err != nil {
				return err
			}
		}
		return ablRounding(w)
	}
	return fmt.Errorf("unknown ablation %q", name)
}

// ablAliasing measures the error-detection confidence of the X-canceling
// MISR's X-free signatures as a function of q: a random single-bit error is
// injected into a known response position and the run is compared against
// the golden signatures.
func ablAliasing(w io.Writer, scale int) error {
	fmt.Fprintln(w, "=== Extension: X-free signature aliasing vs q ===")
	tab := report.New("16-bit MISR, 12 chains x 24 cells, 6 patterns, 3% X's, 200 error trials",
		"q", "Halts", "Signatures", "Detected", "Escape rate")
	_ = scale
	r := rand.New(rand.NewSource(99))
	geom := scan.MustGeometry(16, 24)
	set := scan.NewResponseSet(geom)
	for p := 0; p < 6; p++ {
		resp := scan.NewResponse(geom)
		for c := 0; c < geom.Chains; c++ {
			for pos := 0; pos < geom.ChainLen; pos++ {
				switch {
				case r.Float64() < 0.03:
					resp.Set(c, pos, logic.X)
				case r.Intn(2) == 1:
					resp.Set(c, pos, logic.One)
				default:
					resp.Set(c, pos, logic.Zero)
				}
			}
		}
		if err := set.Append(resp); err != nil {
			return err
		}
	}
	// Collect known positions once.
	type pos struct{ p, chain, cell int }
	var known []pos
	for p, resp := range set.Responses {
		for c := 0; c < geom.Chains; c++ {
			for t := 0; t < geom.ChainLen; t++ {
				if resp.At(c, t) != logic.X {
					known = append(known, pos{p, c, t})
				}
			}
		}
	}
	for _, q := range []int{1, 2, 3, 5} {
		cfg := xcancel.Config{MISR: misr.MustStandard(16), Q: q}
		golden, err := xcancel.RunResponses(cfg, set)
		if err != nil {
			return err
		}
		detected, trials := 0, 200
		var signatures int
		for _, h := range golden.Halts {
			signatures += len(h.Signatures)
		}
		for trial := 0; trial < trials; trial++ {
			k := known[r.Intn(len(known))]
			faulty := scan.NewResponseSet(geom)
			for p, resp := range set.Responses {
				cp := resp.Clone()
				if p == k.p {
					cp.Set(k.chain, k.cell, logic.Not(cp.At(k.chain, k.cell)))
				}
				if err := faulty.Append(cp); err != nil {
					return err
				}
			}
			res, err := xcancel.RunResponses(cfg, faulty)
			if err != nil {
				return err
			}
			if res.FinalSignature != golden.FinalSignature {
				detected++
				continue
			}
			for i := range golden.Halts {
				for j := range golden.Halts[i].Signatures {
					if golden.Halts[i].Signatures[j].Parity != res.Halts[i].Signatures[j].Parity {
						detected++
						goto next
					}
				}
			}
		next:
		}
		tab.Row(fmt.Sprintf("%d", q),
			fmt.Sprintf("%d", len(golden.Halts)),
			fmt.Sprintf("%d", signatures),
			fmt.Sprintf("%d/%d", detected, trials),
			fmt.Sprintf("%.1f%%", 100*float64(trials-detected)/float64(trials)))
	}
	if err := tab.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "Escapes shrink monotonically with q. Single-bit errors are the worst")
	fmt.Fprintln(w, "case: one whose MISR trace falls inside a session's X-row space is")
	fmt.Fprintln(w, "indistinguishable from an X, so rates sit above the 2^-q figure quoted")
	fmt.Fprintln(w, "for random multi-bit errors; real fault effects touch many positions")
	fmt.Fprintln(w, "(see examples/faultcoverage, where coverage matches full observation).")
	fmt.Fprintln(w)
	return nil
}

// ablCompressedCost re-optimizes the partitioning under a compressed
// mask-delivery price: the cost optimum shifts toward more partitions and
// the total delivered volume drops further.
func ablCompressedCost(w io.Writer, scale int) error {
	fmt.Fprintln(w, "=== Extension: partitioning under compressed mask-delivery cost ===")
	tab := report.New(fmt.Sprintf("CKT profiles at 1/%d scale, m=32 q=7; gap-varint mask images", scale),
		"Circuit", "Mask price", "Partitions", "Masked X", "Delivered bits")
	for _, prof := range workload.Profiles() {
		prof = workload.Scaled(prof, scale)
		m, err := prof.Generate()
		if err != nil {
			return err
		}
		base := core.Params{Geom: prof.Geometry(), Cancel: xcancel.Config{MISR: misr.MustStandard(32), Q: 7}, Workers: numWorkers, Obs: obsRec}
		raw, err := core.Run(m, base)
		if err != nil {
			return err
		}
		// Measure the real encoded size of the raw plan's masks and use the
		// mean as the compressed price for a second optimization pass.
		encBits, n := 0, 0
		for _, p := range raw.Partitions {
			encBits += 8 * len(xmask.EncodeGapVarint(p.Mask))
			n++
		}
		price := encBits / max(1, n)
		comp := base
		comp.MaskBitsPerPartition = price
		re, err := core.Run(m, comp)
		if err != nil {
			return err
		}
		// Delivered volume of the re-optimized plan under real encoding.
		delivered := xcancel.ControlBits(re.ResidualX, 32, 7)
		for _, p := range re.Partitions {
			delivered += 8 * len(xmask.EncodeGapVarint(p.Mask))
		}
		tab.Row(prof.Name, fmt.Sprintf("raw (%d)", prof.Geometry().Cells()),
			fmt.Sprintf("%d", len(raw.Partitions)),
			fmt.Sprintf("%d", raw.MaskedX),
			fmt.Sprintf("%d", raw.TotalBits))
		tab.Row("", fmt.Sprintf("varint (~%d)", price),
			fmt.Sprintf("%d", len(re.Partitions)),
			fmt.Sprintf("%d", re.MaskedX),
			fmt.Sprintf("%d", delivered))
	}
	if err := tab.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "Cheap compressed mask images make additional partitions pay off sooner,")
	fmt.Fprintln(w, "masking more X's and shrinking the delivered control volume further.")
	fmt.Fprintln(w)
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ablSuperset compares the proposed hybrid against simplified superset
// X-canceling [17, 18]: control-bit reuse through union signatures, at an
// observability price the proposed method never pays.
func ablSuperset(w io.Writer, scale int) error {
	fmt.Fprintln(w, "=== Comparison: proposed hybrid vs superset X-canceling [17,18] (simplified) ===")
	tab := report.New(fmt.Sprintf("CKT profiles at 1/%d scale, m=32 q=7", scale),
		"Circuit", "Scheme", "Control bits", "Observable lost", "Needs fault sim")
	for _, prof := range workload.Profiles() {
		prof = workload.Scaled(prof, scale)
		m, err := prof.Generate()
		if err != nil {
			return err
		}
		cmp, err := core.Evaluate(m, core.Params{
			Geom:   prof.Geometry(),
			Cancel: xcancel.Config{MISR: misr.MustStandard(32), Q: 7},
		})
		if err != nil {
			return err
		}
		sup, err := superset.Run(m, superset.Config{MISRSize: 32, Q: 7, MinJaccard: 0.3})
		if err != nil {
			return err
		}
		tab.Row(prof.Name, "per-pattern X-canceling [12]",
			fmt.Sprintf("%d", sup.PerPatternBits), "0", "no")
		tab.Row("", "superset X-canceling [17,18]",
			fmt.Sprintf("%d", sup.ControlBits), fmt.Sprintf("%d", sup.LostObservable), "yes")
		tab.Row("", "proposed hybrid",
			fmt.Sprintf("%d", cmp.HybridBits), "0", "no")
	}
	if err := tab.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "Superset reuse also shrinks control data, but sacrifices observable")
	fmt.Fprintln(w, "captures and therefore needs iterative fault simulation; the proposed")
	fmt.Fprintln(w, "partitioning reaches comparable or better volume with zero loss.")
	fmt.Fprintln(w)
	return nil
}

// ablEncoding sizes the partition mask images under compressed encodings
// (extension: requires an on-chip decompressor).
func ablEncoding(w io.Writer, scale int) error {
	fmt.Fprintln(w, "=== Extension: mask-image compression ===")
	tab := report.New(fmt.Sprintf("CKT profiles at 1/%d scale; final paper partitions", scale),
		"Circuit", "Masks", "Raw bits (paper)", "Gap-varint bits", "Sparse-index bits")
	for _, prof := range workload.Profiles() {
		prof = workload.Scaled(prof, scale)
		m, err := prof.Generate()
		if err != nil {
			return err
		}
		res, err := core.Run(m, core.Params{
			Geom:   prof.Geometry(),
			Cancel: xcancel.Config{MISR: misr.MustStandard(32), Q: 7},
		})
		if err != nil {
			return err
		}
		masks := make([]xmask.Mask, len(res.Partitions))
		for i, p := range res.Partitions {
			masks[i] = p.Mask
		}
		c := xmask.CompareEncodings(masks, prof.Geometry().Cells())
		tab.Row(prof.Name, fmt.Sprintf("%d", len(masks)),
			fmt.Sprintf("%d", c.RawBits), fmt.Sprintf("%d", c.GapVarintBits),
			fmt.Sprintf("%d", c.SparseIndexBits))
	}
	if err := tab.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "Partition masks are sparse, so compressed delivery shrinks the masking")
	fmt.Fprintln(w, "share of the control data by an order of magnitude — at the cost of an")
	fmt.Fprintln(w, "on-chip decompressor the paper's architecture does not assume.")
	fmt.Fprintln(w)
	return nil
}

// ablOrdering measures the cycle cost of mask reloads under pattern orders.
func ablOrdering(w io.Writer, scale int) error {
	fmt.Fprintln(w, "=== Extension: pattern ordering and mask-reload time ===")
	prof := workload.Scaled(workload.CKTB(), scale)
	m, err := prof.Generate()
	if err != nil {
		return err
	}
	res, err := core.Run(m, core.Params{
		Geom:   prof.Geometry(),
		Cancel: xcancel.Config{MISR: misr.MustStandard(32), Q: 7},
	})
	if err != nil {
		return err
	}
	halts := xcancel.Halts(res.ResidualX, 32, 7)
	sizes := make([]int, len(res.Partitions))
	for i, p := range res.Partitions {
		sizes[i] = p.Size()
	}
	sorted := tester.OrderedByPartition(sizes)
	// Original ATPG order: walk patterns 0..k-1 and look up each one's
	// partition — maximally interleaved relative to the partition masks.
	interleaved := make([]int, 0, m.Patterns())
	for p := 0; p < m.Patterns(); p++ {
		for i := range res.Partitions {
			if res.Partitions[i].Patterns.Get(p) {
				interleaved = append(interleaved, i)
				break
			}
		}
	}
	tab := report.New(fmt.Sprintf("CKT-B at 1/%d scale, 32 channels", scale),
		"Order", "Mask load", "Loads", "Stall cycles", "Halt cycles", "Normalized time")
	for _, tc := range []struct {
		name  string
		order []int
	}{{"partition-sorted", sorted}, {"original ATPG order", interleaved}} {
		for _, overlap := range []bool{true, false} {
			sched, err := tester.Compute(tester.Plan{
				Geom:             prof.Geometry(),
				PartitionOf:      tc.order,
				MaskBitsPerImage: prof.Geometry().Cells(),
				Halts:            halts,
				MISRSize:         32,
				Q:                7,
			}, tester.Config{Channels: 32, OverlapMaskLoad: overlap})
			if err != nil {
				return err
			}
			mode := "overlapped"
			if !overlap {
				mode = "stalling"
			}
			tab.Row(tc.name, mode, fmt.Sprintf("%d", sched.MaskLoads),
				fmt.Sprintf("%d", sched.MaskLoadCycles), fmt.Sprintf("%d", sched.HaltCycles),
				fmt.Sprintf("%.3f", sched.Normalized()))
		}
	}
	if err := tab.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "With double-buffered (overlapped) mask registers the image always hides")
	fmt.Fprintln(w, "behind the previous pattern's shift cycles, so ordering is free. Without")
	fmt.Fprintln(w, "them, the original ATPG order reloads at almost every pattern boundary")
	fmt.Fprintln(w, "and mask stalls dominate; partition-sorted order needs one load each.")
	fmt.Fprintln(w)
	return nil
}

// ablStrategies compares the paper's group-size heuristic against random
// member choice and full greedy cost search.
func ablStrategies(w io.Writer, scale int) error {
	fmt.Fprintln(w, "=== Ablation: split-selection strategy ===")
	tab := report.New(fmt.Sprintf("CKT profiles at 1/%d scale, m=32 q=7", scale),
		"Circuit", "Strategy", "Partitions", "Rounds", "Total bits", "vs cancel-only")
	for _, prof := range workload.Profiles() {
		prof = workload.Scaled(prof, scale)
		m, err := prof.Generate()
		if err != nil {
			return err
		}
		for _, s := range []core.Strategy{core.StrategyPaper, core.StrategyPaperRandom, core.StrategyGreedyCost} {
			cmp, err := core.Evaluate(m, core.Params{
				Geom:     prof.Geometry(),
				Cancel:   xcancel.Config{MISR: misr.MustStandard(32), Q: 7},
				Strategy: s,
				Seed:     1,
			})
			if err != nil {
				return err
			}
			tab.Row(prof.Name, s.Name(),
				fmt.Sprintf("%d", len(cmp.Result.Partitions)),
				fmt.Sprintf("%d", len(cmp.Result.Rounds)),
				fmt.Sprintf("%d", cmp.HybridBits),
				report.Ratio(cmp.ImprovementOverCancel))
		}
	}
	if err := tab.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "All strategies find the same partitions on cleanly correlated workloads;")
	fmt.Fprintln(w, "greedy needs no rejected probe round; it prices every distinct split per round.")
	fmt.Fprintln(w, "Note: at reduced scale CKT-A's fixed per-partition mask cost outweighs its")
	fmt.Fprintln(w, "sparse X savings (ratio < 1); the hybrid needs the full X volume to pay off.")
	fmt.Fprintln(w)
	return nil
}

// ablRounding compares the paper's fractional control-bit accounting
// (rounded once) against per-halt ceilings.
func ablRounding(w io.Writer) error {
	fmt.Fprintln(w, "=== Ablation: X-canceling control-bit rounding ===")
	tab := report.New("ceil(m*q*T/(m-q)) vs ceil(T/(m-q))*m*q",
		"T (X's)", "m", "q", "fractional-ceil", "per-halt-ceil", "overhead")
	for _, tc := range []struct{ t, m, q int }{
		{5, 10, 2}, {12, 10, 1}, {757575, 32, 7}, {2976187, 32, 7}, {6971710, 32, 7},
	} {
		a := xcancel.ControlBits(tc.t, tc.m, tc.q)
		b := xcancel.ControlBitsPerHaltCeil(tc.t, tc.m, tc.q)
		tab.Row(fmt.Sprintf("%d", tc.t), fmt.Sprintf("%d", tc.m), fmt.Sprintf("%d", tc.q),
			fmt.Sprintf("%d", a), fmt.Sprintf("%d", b),
			fmt.Sprintf("%+.3f%%", 100*(float64(b)/float64(a)-1)))
	}
	if err := tab.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

// ablGranularity compares per-cell partition masks against per-chain masks.
func ablGranularity(w io.Writer, scale int) error {
	fmt.Fprintln(w, "=== Ablation: mask granularity (per cell vs per chain) ===")
	tab := report.New(fmt.Sprintf("CKT-B at 1/%d scale; masks applied to the final paper partitions", scale),
		"Granularity", "Mask bits/partition", "Masked X", "Residual X", "Total bits")
	prof := workload.Scaled(workload.CKTB(), scale)
	m, err := prof.Generate()
	if err != nil {
		return err
	}
	params := core.Params{Geom: prof.Geometry(), Cancel: xcancel.Config{MISR: misr.MustStandard(32), Q: 7}, Workers: numWorkers, Obs: obsRec}
	res, err := core.Run(m, params)
	if err != nil {
		return err
	}
	tab.Row("per-cell",
		fmt.Sprintf("%d", prof.Geometry().Cells()),
		fmt.Sprintf("%d", res.MaskedX),
		fmt.Sprintf("%d", res.ResidualX),
		fmt.Sprintf("%d", res.TotalBits))
	// Re-account the same partitions with chain-granularity masks.
	chainMasked := 0
	for _, p := range res.Partitions {
		_, mx, _ := xmask.ChainMask(m, prof.Geometry(), p.Patterns)
		chainMasked += mx
	}
	residual := res.TotalX - chainMasked
	total := len(res.Partitions)*prof.Geometry().Chains +
		xcancel.ControlBits(residual, 32, 7)
	tab.Row("per-chain",
		fmt.Sprintf("%d", prof.Geometry().Chains),
		fmt.Sprintf("%d", chainMasked),
		fmt.Sprintf("%d", residual),
		fmt.Sprintf("%d", total))
	if err := tab.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "Per-chain masks are far cheaper per partition but rarely applicable, so")
	fmt.Fprintln(w, "nearly all X's leak to the canceling MISR and the total grows.")
	fmt.Fprintln(w)
	return nil
}

// ablShadow compares the time-multiplexed and shadow-register X-canceling
// variants on the hybrid's residual X stream.
func ablShadow(w io.Writer, scale int) error {
	fmt.Fprintln(w, "=== Ablation: time-multiplexed vs shadow-register X-canceling ===")
	tab := report.New(fmt.Sprintf("CKT profiles at 1/%d scale, m=32 q=7", scale),
		"Circuit", "Variant", "Test time", "Control bits", "Extra channels")
	for _, prof := range workload.Profiles() {
		prof = workload.Scaled(prof, scale)
		m, err := prof.Generate()
		if err != nil {
			return err
		}
		for _, shadow := range []bool{false, true} {
			cfg := xcancel.Config{MISR: misr.MustStandard(32), Q: 7, Shadow: shadow}
			cmp, err := core.Evaluate(m, core.Params{Geom: prof.Geometry(), Cancel: cfg})
			if err != nil {
				return err
			}
			variant, channels := "time-multiplexed", "0"
			if shadow {
				variant, channels = "shadow-register", fmt.Sprintf("%d", 32)
			}
			tab.Row(prof.Name, variant, report.Ratio(cmp.TestTimeHybrid),
				fmt.Sprintf("%d", cmp.HybridBits), channels)
		}
	}
	if err := tab.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "The shadow register removes the halt time but needs dedicated tester")
	fmt.Fprintln(w, "channels, which the paper excludes for fairness.")
	fmt.Fprintln(w)
	return nil
}

// ablQSweep sweeps the number of X-free combinations extracted per halt.
func ablQSweep(w io.Writer, scale int) error {
	fmt.Fprintln(w, "=== Ablation: q sweep (X-free combinations per halt) ===")
	prof := workload.Scaled(workload.CKTB(), scale)
	m, err := prof.Generate()
	if err != nil {
		return err
	}
	tab := report.New(fmt.Sprintf("CKT-B at 1/%d scale, m=32", scale),
		"q", "Partitions", "Residual X", "Total bits", "Test time")
	for _, q := range []int{1, 3, 5, 7, 9, 11, 15} {
		cmp, err := core.Evaluate(m, core.Params{
			Geom:   prof.Geometry(),
			Cancel: xcancel.Config{MISR: misr.MustStandard(32), Q: q},
		})
		if err != nil {
			return err
		}
		tab.Row(fmt.Sprintf("%d", q),
			fmt.Sprintf("%d", len(cmp.Result.Partitions)),
			fmt.Sprintf("%d", cmp.Result.ResidualX),
			fmt.Sprintf("%d", cmp.HybridBits),
			report.Ratio(cmp.TestTimeHybrid))
	}
	if err := tab.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

// ablCorrelation sweeps the workload's correlation structure: the share of
// structured X's and the overlap between cluster pattern sets.
func ablCorrelation(w io.Writer, scale int) error {
	fmt.Fprintln(w, "=== Ablation: sensitivity to X inter-correlation ===")
	base := workload.Scaled(workload.CKTB(), scale)
	tab := report.New(fmt.Sprintf("CKT-B at 1/%d scale, m=32 q=7", scale),
		"Structured", "Overlap", "Partitions", "Masked X", "Total bits", "vs cancel-only")
	for _, structured := range []float64{0.0, 0.25, 0.55, 0.8} {
		for _, overlap := range []float64{0, 0.5} {
			prof := base
			prof.StructuredFraction = structured
			prof.OverlapFraction = overlap
			m, err := prof.Generate()
			if err != nil {
				return err
			}
			cmp, err := core.Evaluate(m, core.Params{
				Geom:   prof.Geometry(),
				Cancel: xcancel.Config{MISR: misr.MustStandard(32), Q: 7},
			})
			if err != nil {
				return err
			}
			tab.Row(
				fmt.Sprintf("%.2f", structured),
				fmt.Sprintf("%.2f", overlap),
				fmt.Sprintf("%d", len(cmp.Result.Partitions)),
				fmt.Sprintf("%d", cmp.Result.MaskedX),
				fmt.Sprintf("%d", cmp.HybridBits),
				report.Ratio(cmp.ImprovementOverCancel))
		}
	}
	if err := tab.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "With no structured X's the method degenerates to X-canceling (as the")
	fmt.Fprintln(w, "paper notes, the benefit comes from inter-correlation); overlap between")
	fmt.Fprintln(w, "cluster pattern sets fragments partitions and erodes the gain.")
	fmt.Fprintln(w)
	return nil
}
