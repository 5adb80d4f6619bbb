// Package flow orchestrates the complete hybrid X-handling deployment: from
// an X-location map it builds the tester "program" — partition masks,
// pattern application order, canceling configuration, and the cycle-level
// schedule — and it can replay a full response set through the hardware
// models (mask stage → spatial compactor → symbolic X-canceling MISR) to
// verify that the program behaves as accounted: every extracted signature
// is X-free and no observable capture was masked.
//
// This package implements the ATE scheduling extension of DESIGN.md §7 and
// the end-to-end replay leg of the verification strategy in §8 (signatures
// checked against symbolic prediction, observable captures never masked).
package flow

import (
	"context"
	"fmt"
	"math/bits"

	"xhybrid/internal/compactor"
	"xhybrid/internal/core"
	"xhybrid/internal/obs"
	"xhybrid/internal/scan"
	"xhybrid/internal/tester"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
)

// Program is everything the tester needs to apply the hybrid test.
type Program struct {
	// Geom is the scan geometry.
	Geom scan.Geometry
	// Cancel is the X-canceling MISR configuration.
	Cancel xcancel.Config
	// Partitions are the pattern partitions with their masks.
	Partitions []core.Partition
	// PatternOrder applies partitions contiguously (one mask load each).
	PatternOrder []int
	// PartitionOf[i] is the partition id of PatternOrder[i].
	PartitionOf []int
	// Accounting mirrors core.Result for the plan.
	Accounting *core.Result
	// PlannedHalts is the closed-form halt budget the schedule reserves for
	// the accounting residual; a replay's halts must fit in it.
	PlannedHalts int
	// Schedule is the cycle-level tester schedule.
	Schedule tester.Schedule
	// Obs carries params.Obs into the replay stage; nil disables
	// observation.
	Obs *obs.Recorder
}

// Build partitions the X-map and assembles the program. The partitioning,
// ordering and scheduling stages are recorded on params.Obs when set. It is
// BuildCtx with a background context.
func Build(m *xmap.XMap, params core.Params, tcfg tester.Config) (*Program, error) {
	return BuildCtx(context.Background(), m, params, tcfg)
}

// BuildCtx is Build under a context: canceling ctx stops the partitioner
// mid-round, which is how the serving layer's /v1/flow jobs abort promptly.
func BuildCtx(ctx context.Context, m *xmap.XMap, params core.Params, tcfg tester.Config) (*Program, error) {
	defer params.Obs.Span("flow.build")()
	res, err := core.RunCtx(ctx, m, params)
	if err != nil {
		return nil, err
	}
	return Assemble(res, params.Geom, params.Cancel, tcfg, params.Obs)
}

// Assemble builds the tester program around an already-computed
// partitioning result: pattern ordering, halt budget and the cycle-level
// schedule. BuildCtx is Assemble after core.RunCtx; callers that already
// hold a result — stratbench racing many strategies over one X-map —
// assemble directly and verify through the same replay path. rec may be
// nil.
func Assemble(res *core.Result, geom scan.Geometry, cancel xcancel.Config, tcfg tester.Config, rec *obs.Recorder) (*Program, error) {
	prog := &Program{
		Geom:         geom,
		Cancel:       cancel,
		Partitions:   res.Partitions,
		Accounting:   res,
		PlannedHalts: xcancel.Halts(res.ResidualX, cancel.MISR.Size, cancel.Q),
		Obs:          rec,
	}
	sizes := make([]int, len(res.Partitions))
	for i, p := range res.Partitions {
		sizes[i] = p.Size()
		for _, pat := range p.Patterns.Indices() {
			prog.PatternOrder = append(prog.PatternOrder, pat)
		}
	}
	prog.PartitionOf = tester.OrderedByPartition(sizes)
	sched, err := tester.Compute(tester.Plan{
		Geom:             geom,
		PartitionOf:      prog.PartitionOf,
		MaskBitsPerImage: geom.Cells(),
		Halts:            prog.PlannedHalts,
		MISRSize:         cancel.MISR.Size,
		Q:                cancel.Q,
	}, tcfg)
	if err != nil {
		return nil, err
	}
	prog.Schedule = sched
	return prog, nil
}

// partitionOf maps each of n patterns to the partition that holds it. A
// plan whose partitions overlap, select a pattern beyond n, or whose
// PatternOrder is not a permutation of the n patterns is an error: a
// pattern in two partitions would replay under one mask, and a repeated
// pattern could hide a skipped one.
func (prog *Program) partitionOf(n int) ([]int, error) {
	if len(prog.PatternOrder) != n {
		return nil, fmt.Errorf("flow: %d responses for %d planned patterns", n, len(prog.PatternOrder))
	}
	part := make([]int, n)
	for p := range part {
		part[p] = -1
	}
	for i, pt := range prog.Partitions {
		for p := pt.Patterns.NextSet(0); p >= 0; p = pt.Patterns.NextSet(p + 1) {
			switch {
			case p >= n:
				return nil, fmt.Errorf("flow: partition %d holds pattern %d of %d", i, p, n)
			case part[p] >= 0:
				return nil, fmt.Errorf("flow: pattern %d is in partitions %d and %d", p, part[p], i)
			}
			part[p] = i
		}
	}
	seen := make([]bool, n)
	for _, p := range prog.PatternOrder {
		switch {
		case p < 0 || p >= n:
			return nil, fmt.Errorf("flow: pattern order names pattern %d of %d", p, n)
		case seen[p]:
			return nil, fmt.Errorf("flow: pattern order repeats pattern %d", p)
		case part[p] < 0:
			return nil, fmt.Errorf("flow: pattern %d in no partition", p)
		}
		seen[p] = true
	}
	return part, nil
}

// VerifyReport summarizes a hardware-model replay of the program.
type VerifyReport struct {
	// PatternsApplied is the number of responses replayed.
	PatternsApplied int
	// MaskedX is the number of X captures removed by the mask stage.
	MaskedX int
	// ObservableMasked counts known captures destroyed by masks — the
	// fault-coverage guarantee demands zero.
	ObservableMasked int
	// ResidualX is the number of X's that reached the MISR after masking
	// and compaction (compaction can fold several into one).
	ResidualX int
	// Halts and Signatures summarize the canceling sessions.
	Halts      int
	Signatures int
	// Deficits sums Halt.Deficit over every halt: the X-free combinations
	// the halts should have delivered (q each) and did not. It counts
	// missing combinations, not halts.
	Deficits int
	// ControlBits is the canceling control data actually transferred.
	ControlBits int
	// NormalizedTime is the measured shift+halt time over shift time.
	NormalizedTime float64
	// SignatureParities flattens the halt signatures' parities in order —
	// the values compared against the golden run.
	SignatureParities []int
	// FinalSignature is the end-of-test MISR signature.
	FinalSignature uint64
	// Violation is the replay verdict: nil when the replay meets the plan,
	// otherwise the first broken clause (see Program.verdict).
	Violation error
}

// VerifyPacked replays the full response set through the program's hardware
// models and holds the replay to the plan's accounting, setting
// VerifyReport.Violation. The responses' geometry must match the program,
// and its partitions must hold each response's pattern exactly once, in a
// pattern order that applies every pattern once; the compactor folds the
// chains onto the MISR inputs. The cycle/pattern counters land on prog.Obs
// when set, with two spans inside the caller's replay span:
// flow.replay.fold (mask lanes, compactor fold, transposes) and
// flow.replay.cancel (shifting, halts, finish). A non-nil error means the
// replay could not run at all.
//
// The mask stage and the compactor run 64 patterns at a time: each block
// of the set folds into every pattern's per-cycle MISR input words, which
// the canceler then shifts in PatternOrder.
func VerifyPacked(prog *Program, set *scan.PackedResponses) (*VerifyReport, error) {
	if set.Geom != prog.Geom {
		return nil, fmt.Errorf("flow: response geometry %v does not match program %v", set.Geom, prog.Geom)
	}
	partOf, err := prog.partitionOf(set.Patterns())
	if err != nil {
		return nil, err
	}
	tree, err := compactor.NewModulo(prog.Geom.Chains, prog.Cancel.MISR.Size)
	if err != nil {
		return nil, err
	}
	canc, err := xcancel.NewCanceler(prog.Cancel)
	if err != nil {
		return nil, err
	}
	canc.Observe(prog.Obs)

	endFold := prog.Obs.Span("flow.replay.fold")
	chainLen := prog.Geom.ChainLen
	known := make([]uint64, set.Patterns()*chainLen)
	xs := make([]uint64, len(known))
	lanes := make([]uint64, prog.Geom.Cells())
	partLanes := make([]uint64, len(prog.Partitions))
	var counts compactor.FoldCounts
	for b := 0; b < set.Blocks(); b++ {
		if err := prog.maskLanes(partOf, b, set.BlockPatterns(b), partLanes, lanes); err != nil {
			return nil, err
		}
		if err := tree.FoldBlock(set, b, lanes, known, xs, &counts); err != nil {
			return nil, err
		}
	}
	endFold()

	endCancel := prog.Obs.Span("flow.replay.cancel")
	for _, p := range prog.PatternOrder {
		for i := p * chainLen; i < (p+1)*chainLen; i++ {
			canc.ShiftWord(known[i], xs[i])
		}
	}
	res := canc.Finish()
	endCancel()
	prog.Obs.Counter("flow.patterns.replayed").Add(int64(len(prog.PatternOrder)))
	prog.Obs.Counter("flow.cycles.replayed").Add(int64(len(prog.PatternOrder) * chainLen))

	rep := &VerifyReport{
		PatternsApplied:  len(prog.PatternOrder),
		MaskedX:          counts.MaskedX,
		ObservableMasked: counts.ObservableMasked,
		ResidualX:        counts.ResidualX,
		Halts:            len(res.Halts),
		ControlBits:      res.ControlBits,
		NormalizedTime:   res.NormalizedTime(),
		FinalSignature:   res.FinalSignature,
	}
	for _, h := range res.Halts {
		rep.Signatures += len(h.Signatures)
		rep.Deficits += h.Deficit
		for _, sig := range h.Signatures {
			rep.SignatureParities = append(rep.SignatureParities, sig.Parity)
		}
	}
	rep.Violation = prog.verdict(rep)
	return rep, nil
}

// maskLanes sets lanes[cell] to the lanes of block b (n patterns) whose
// partition's mask holds the cell: the mask stage for 64 patterns at once.
// partOf maps each pattern to its partition; partLanes is scratch, one word
// per partition. A mask that is neither empty nor one bit per cell is an
// error.
func (prog *Program) maskLanes(partOf []int, b, n int, partLanes, lanes []uint64) error {
	clear(partLanes)
	for k := 0; k < n; k++ {
		partLanes[partOf[64*b+k]] |= 1 << uint(k)
	}
	clear(lanes)
	for i, w := range partLanes {
		if w == 0 {
			continue
		}
		cells := prog.Partitions[i].Mask.Cells
		if cells.Len() != 0 && cells.Len() != len(lanes) {
			return fmt.Errorf("flow: partition %d mask width %d vs %d cells", i, cells.Len(), len(lanes))
		}
		for wi, mw := range cells.Words() {
			for ; mw != 0; mw &= mw - 1 {
				lanes[wi*64+bits.TrailingZeros64(mw)] |= w
			}
		}
	}
	return nil
}

// verdict holds a replay to the plan's accounting. It checks four clauses
// in order and returns the first one broken, or nil:
//
//   - no observable capture is masked (fault coverage is kept);
//   - the replayed masked-X count equals the accounted one;
//   - the replayed residual X is at most the accounted residual (the
//     compactor can fold X's together, never create them);
//   - the halts fit in the planned budget.
func (prog *Program) verdict(rep *VerifyReport) error {
	acct := prog.Accounting
	switch {
	case rep.ObservableMasked != 0:
		return fmt.Errorf("replay masked %d observable captures", rep.ObservableMasked)
	case rep.MaskedX != acct.MaskedX:
		return fmt.Errorf("replay masked %d X's, plan accounts %d", rep.MaskedX, acct.MaskedX)
	case rep.ResidualX > acct.ResidualX:
		return fmt.Errorf("replay residual %d exceeds accounted %d", rep.ResidualX, acct.ResidualX)
	case rep.Halts > prog.PlannedHalts:
		return fmt.Errorf("replay ran %d halts, schedule planned %d", rep.Halts, prog.PlannedHalts)
	}
	return nil
}
