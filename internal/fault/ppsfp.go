package fault

// The PPSFP (parallel-pattern single-fault propagation) engine: the
// production fault-simulation path of the flow. Three stacked wins over the
// serial simulator:
//
//  1. Word-parallel good machine. Patterns are cut into 64-lane blocks and
//     the fault-free machine is evaluated exactly once per block
//     (sim.CaptureBlocks), retaining every node's word. The engine takes
//     those blocks as input, so the flow evaluates the good machine once,
//     in its simulate stage, and hands the same blocks to faultsim.
//  2. Cone-limited fault evaluation. Each fault re-evaluates only its
//     fanout cone (sim.ConeSim), reading good-machine words at the cone
//     frontier — the per-fault cost is proportional to the cone, not the
//     circuit.
//  3. Fault-parallel fan-out with single-pass multi-observability. The
//     (typically collapsed) fault list is sharded across an internal/pool
//     worker set with position-indexed results; each fault's faulty
//     captures are computed once and every Observe predicate is evaluated
//     against the same difference words, so "baseline vs hybrid" coverage
//     costs one simulation, not two. A fault is dropped — its remaining
//     pattern blocks skipped — as soon as every predicate has detected it.
//
// The contract is exact equivalence with the reference simulator: for every
// predicate j, the returned Result j (Detected and per-fault first
// detecting pattern) is byte-identical to Simulate(c, loads, pis, faults,
// preds[j]) over the stimuli the blocks were built from, at any worker
// count. TestPPSFPMatchesSerial locks this across circuits × predicates ×
// worker counts under -race.

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"

	"xhybrid/internal/netlist"
	"xhybrid/internal/obs"
	"xhybrid/internal/pool"
	"xhybrid/internal/sim"
)

// PPSFPOptions carries the engine's run knobs. The zero value runs on all
// CPUs with no observation or progress reporting.
type PPSFPOptions struct {
	// Workers bounds the fault-parallel fan-out (0 = all CPUs). Results
	// are byte-identical for any worker count.
	Workers int
	// Obs receives the engine's counters (fault.ppsfp.*): cones built,
	// cone and evaluated gate totals, and per-block fault-drop counts.
	Obs *obs.Recorder
	// OnProgress, when set, is called as faults complete simulation —
	// roughly every ProgressEvery completions and once at the end with
	// done == total. It may be called concurrently from several workers
	// and must be safe for that; done values are monotonic per call site
	// but may arrive out of order.
	OnProgress func(done, total int)
	// ProgressEvery is the completion granularity of OnProgress
	// (default: total/32, at least 1).
	ProgressEvery int
}

// SimulatePPSFP runs parallel-pattern single-fault propagation over the
// fault list and returns one Result per observability predicate, each
// exactly equal — Detected count and per-fault first detecting pattern — to
// a serial Simulate run under that predicate alone. blocks is the circuit's
// fault-free machine as sim.CaptureBlocks returns it: block b holds
// patterns [64b, 64b+64), and only the last may be partial. A nil predicate
// means full observability. Canceling ctx aborts between faults with the
// context's error.
func SimulatePPSFP(ctx context.Context, c *netlist.Circuit, blocks []*sim.Block, faults []Def, preds []Observe, opt PPSFPOptions) ([]*Result, error) {
	for b, blk := range blocks {
		if blk == nil || blk.Circuit() != c || (b < len(blocks)-1 && blk.Patterns() != 64) {
			return nil, fmt.Errorf("fault: block %d is not a 64-pattern block of circuit %q", b, c.Name)
		}
	}
	if len(preds) == 0 {
		return nil, fmt.Errorf("fault: no observability predicates")
	}
	for _, f := range faults {
		if f.Node < 0 || f.Node >= c.NumGates() {
			return nil, fmt.Errorf("fault: node %d out of range [0, %d)", f.Node, c.NumGates())
		}
	}
	np := len(preds)
	results := make([]*Result, np)
	for j := range results {
		results[j] = &Result{Total: len(faults), DetectedBy: make([]int, len(faults))}
		for i := range results[j].DetectedBy {
			results[j].DetectedBy[i] = -1
		}
	}
	nb := len(blocks)
	if nb == 0 || len(faults) == 0 {
		return results, ctx.Err()
	}

	p := pool.New(opt.Workers)
	defer p.Close()
	errs := make([]error, p.Workers())

	// Shard the fault list across the workers. Every fault's lifecycle —
	// cone, per-block evaluation, per-predicate first detection, drop
	// decision — is independent of every other fault's, and all writes are
	// position-indexed by fault, so the assembled results are
	// byte-identical at any worker count.
	ix := sim.NewConeIndex(c)
	type workerStats struct {
		cones, coneGates, gateEvals int64
		droppedAt                   []int64
	}
	stats := make([]workerStats, p.Workers())
	var done atomic.Int64
	every := opt.ProgressEvery
	if every <= 0 {
		every = len(faults) / 32
		if every < 1 {
			every = 1
		}
	}
	total := len(faults)
	p.Chunks(len(faults), func(ci, lo, hi int) {
		cs := ix.NewSim()
		st := &stats[ci]
		st.droppedAt = make([]int64, nb)
		best := make([]int, np)
		pending := make([]bool, np)
		for fi := lo; fi < hi; fi++ {
			if err := ctx.Err(); err != nil {
				errs[ci] = err
				return
			}
			f := faults[fi]
			gates, cells := cs.BuildCone(f.Node)
			st.cones++
			st.coneGates += int64(len(gates))
			npending := np
			for j := range pending {
				pending[j] = true
			}
			for b, blk := range blocks {
				base := b * 64
				for j := range best {
					best[j] = 64
				}
				st.gateEvals += int64(cs.FaultDiff(blk, sim.Fault{Node: f.Node, StuckAt: f.SA}, gates, cells,
					func(cell int, lanes uint64) {
						for j := 0; j < np; j++ {
							if !pending[j] {
								continue
							}
							// Only lanes earlier than the best detection so
							// far can improve it; a nil predicate takes the
							// lowest lane outright.
							m := lanes
							if best[j] < 64 {
								m &= 1<<uint(best[j]) - 1
							}
							if m == 0 {
								continue
							}
							if preds[j] == nil {
								best[j] = bits.TrailingZeros64(m)
								continue
							}
							for ; m != 0; m &= m - 1 {
								k := bits.TrailingZeros64(m)
								if preds[j](base+k, cell) {
									best[j] = k
									break
								}
							}
						}
					}))
				for j := 0; j < np; j++ {
					if pending[j] && best[j] < 64 {
						results[j].DetectedBy[fi] = base + best[j]
						pending[j] = false
						npending--
					}
				}
				if npending == 0 {
					st.droppedAt[b]++
					break
				}
			}
			if d := int(done.Add(1)); opt.OnProgress != nil && (d%every == 0 || d == total) {
				opt.OnProgress(d, total)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	for j := range results {
		det := 0
		for _, by := range results[j].DetectedBy {
			if by >= 0 {
				det++
			}
		}
		results[j].Detected = det
	}

	// Counters reduce position-independently (integer sums of per-fault
	// quantities), so the observability stream is as deterministic as the
	// results.
	rec := opt.Obs
	var cones, coneGates, gateEvals int64
	droppedAt := make([]int64, nb)
	for i := range stats {
		cones += stats[i].cones
		coneGates += stats[i].coneGates
		gateEvals += stats[i].gateEvals
		for b, n := range stats[i].droppedAt {
			droppedAt[b] += n
		}
	}
	rec.Add("fault.ppsfp.faults", int64(len(faults)))
	rec.Add("fault.ppsfp.blocks", int64(nb))
	rec.Add("fault.ppsfp.cones.built", cones)
	rec.Add("fault.ppsfp.cone.gates", coneGates)
	rec.Add("fault.ppsfp.gates.evaluated", gateEvals)
	for b, n := range droppedAt {
		if n > 0 {
			rec.Add(fmt.Sprintf("fault.ppsfp.dropped.block%03d", b), n)
		}
	}
	return results, nil
}
