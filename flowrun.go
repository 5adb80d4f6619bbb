package xhybrid

import (
	"context"

	"xhybrid/internal/flow"
)

// FlowSpec describes one end-to-end circuit-flow run: generate a seeded
// circuit, apply LFSR ATPG, simulate the three-valued responses, extract
// the real X-location map, partition it, replay the plan through the
// hardware models and (with FaultSample or FaultFull set) measure stuck-at
// coverage with the PPSFP fault-simulation engine over the collapsed fault
// list. Zero values select the documented defaults (8 PIs, 256 patterns,
// m=32, q=7, strategy paper; faultsim workers inherit Workers). See
// docs/FLOW.md for the stage walkthrough.
type FlowSpec = flow.Spec

// FlowReport is the outcome of one flow run: circuit and X-map statistics,
// plan accounting, replay measurements, optional fault coverage and
// per-stage timing. Report.Preserved is the end-to-end coverage verdict.
type FlowReport = flow.Report

// FlowRunConfig carries the non-serialized knobs of a flow run: the stats
// recorder and the per-stage progress hook (which the faultsim stage also
// drives with per-batch "faultsim done/total" strings).
type FlowRunConfig = flow.RunConfig

// RunFlow executes the full circuit pipeline for the spec. It is RunFlowCtx
// with a background context.
func RunFlow(spec FlowSpec) (*FlowReport, error) {
	return RunFlowCtx(context.Background(), spec, FlowRunConfig{})
}

// RunFlowCtx is RunFlow under a context and run configuration: canceling
// ctx aborts the simulation between pattern blocks, the partitioner
// mid-round and the fault simulator between faults. The report is
// deterministic apart from stage wall times —
// equal specs give equal X-map digests, plans and replay measurements at
// any worker count.
func RunFlowCtx(ctx context.Context, spec FlowSpec, cfg FlowRunConfig) (*FlowReport, error) {
	return flow.RunSpec(ctx, spec, cfg)
}
