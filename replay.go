package xhybrid

import (
	"fmt"

	"xhybrid/internal/flow"
	"xhybrid/internal/tester"
	"xhybrid/internal/workload"
)

// ReplayReport summarizes an end-to-end hardware-model check of a plan: the
// partition masks, spatial compactor and X-canceling MISR are actually run
// over synthesized responses consistent with the X locations.
type ReplayReport struct {
	// MaskedX is the number of X captures the mask stage removed.
	MaskedX int
	// ObservableMasked counts destroyed known captures; the fault-coverage
	// guarantee demands zero.
	ObservableMasked int
	// ResidualX reached the MISR after masking and compaction.
	ResidualX int
	// Halts and Signatures summarize the canceling sessions.
	Halts      int
	Signatures int
	// Deficits counts the X-free combinations the halts should have
	// delivered (q each) and did not: a halt after a shift cycle that
	// brings more than m-q X's can leave fewer than q. The verdict does not
	// read it.
	Deficits int
	// NormalizedTime is the measured shift+halt time over shift time.
	NormalizedTime float64
	// ScheduleCycles is the full ATE schedule including mask loads.
	ScheduleCycles int
	// Violation is nil when the replay meets the plan's accounting: no
	// observable capture masked, the masked X's exactly as accounted, the
	// residual within the accounted residual and the halts within the
	// planned budget. Otherwise it names the first broken clause.
	Violation error
}

// ReplayCheck builds the tester program for the X locations and replays
// synthesized responses (known values pseudo-random from seed, X's exactly
// as mapped) through the hardware models. It is meant for scaled designs:
// every synthesized response is held in memory, two bits per cell per
// pattern.
func ReplayCheck(x *XLocations, opt Options, seed int64) (*ReplayReport, error) {
	params, err := opt.params(x.geom)
	if err != nil {
		return nil, err
	}
	if params.Cancel.MISR.Size > x.geom.Chains {
		return nil, fmt.Errorf("xhybrid: %d-bit MISR wider than %d chains; pick MISRSize <= chains",
			params.Cancel.MISR.Size, x.geom.Chains)
	}
	prog, err := flow.Build(x.m, params, tester.Config{
		Channels:        params.Cancel.MISR.Size,
		OverlapMaskLoad: true,
	})
	if err != nil {
		return nil, err
	}
	endSynth := opt.Stats.Span("replay.synthesize")
	set, err := workload.ResponsesFromXMap(x.m, x.geom, seed)
	endSynth()
	if err != nil {
		return nil, err
	}
	endReplay := opt.Stats.Span("flow.replay")
	rep, err := flow.VerifyPacked(prog, set)
	endReplay()
	if err != nil {
		return nil, err
	}
	return &ReplayReport{
		MaskedX:          rep.MaskedX,
		ObservableMasked: rep.ObservableMasked,
		ResidualX:        rep.ResidualX,
		Halts:            rep.Halts,
		Signatures:       rep.Signatures,
		Deficits:         rep.Deficits,
		NormalizedTime:   rep.NormalizedTime,
		ScheduleCycles:   prog.Schedule.TotalCycles,
		Violation:        rep.Violation,
	}, nil
}
