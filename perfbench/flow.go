package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"xhybrid"
)

// flowInputs is how many circuit/stimulus seed pairs flow-mid cycles over.
const flowInputs = 8

// flowStages are the pipeline stages in run order, as RunConfig.OnStage
// names them.
var flowStages = []string{"generate", "atpg", "simulate", "extract", "partition", "replay", "faultsim"}

// flowWorkload is flow-mid: the full circuit pipeline on 4,096 cells, 64
// chains, 96 X clusters, 256 patterns and 100 sampled faults at Workers=1.
type flowWorkload struct {
	seed  int64
	specs []xhybrid.FlowSpec
	want  []*xhybrid.FlowReport // each spec's warm-up report
	tr    flowTrace
}

// flowTrace sums the per-layer measurements of traced flow ops.
type flowTrace struct {
	ops      int
	wall     float64            // op seconds, RunFlowCtx call to return
	stage    map[string]float64 // seconds per stage
	counters map[string]int64
}

func newFlowWorkload(seed int64) workloadRunner { return &flowWorkload{seed: seed} }

func (w *flowWorkload) cycle() int { return flowInputs }

func (w *flowWorkload) setup(ctx context.Context) error {
	w.tr = flowTrace{stage: map[string]float64{}, counters: map[string]int64{}}
	for k := 0; k < flowInputs; k++ {
		spec := xhybrid.FlowSpec{
			Cells: 4096, Chains: 64, XClusters: 96, Patterns: 256,
			FaultSample: 100, FaultSeed: 1, Workers: 1,
			CircuitSeed: derive(w.seed, "circuit", k),
			StimSeed:    uint64(derive(w.seed, "stimuli", k)),
		}
		rep, err := xhybrid.RunFlowCtx(ctx, spec, xhybrid.FlowRunConfig{})
		if err != nil {
			return err
		}
		if err := checkFlow(rep); err != nil {
			return fmt.Errorf("flow-mid warm-up spec %d: %w", k, err)
		}
		w.specs = append(w.specs, spec)
		w.want = append(w.want, rep)
	}
	return nil
}

// checkFlow holds a report to the paper's guarantees: the replay verdict
// and the fault-coverage leg must both say preserved.
func checkFlow(rep *xhybrid.FlowReport) error {
	if !rep.Preserved || rep.Coverage == nil || !rep.Coverage.Preserved {
		return fmt.Errorf("coverage not preserved (report %v, faultsim %+v)", rep.Preserved, rep.Coverage)
	}
	return nil
}

// stageMark is the moment one stage started.
type stageMark struct {
	name string
	at   time.Time
}

func (w *flowWorkload) op(ctx context.Context, i int, traced bool) (func() (exact, error), error) {
	k := i % flowInputs
	var cfg xhybrid.FlowRunConfig
	var mu sync.Mutex
	var marks []stageMark
	if traced {
		cfg.Obs = xhybrid.NewStats()
		cfg.OnStage = func(name string) {
			at := time.Now()
			if !isFlowStage(name) {
				return // a "faultsim done/total" progress string
			}
			mu.Lock()
			marks = append(marks, stageMark{name, at})
			mu.Unlock()
		}
	}
	t0 := time.Now()
	rep, err := xhybrid.RunFlowCtx(ctx, w.specs[k], cfg)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if traced {
		w.tr.ops++
		w.tr.wall += t1.Sub(t0).Seconds()
		for j, mk := range marks {
			end := t1
			if j+1 < len(marks) {
				end = marks[j+1].at
			}
			w.tr.stage[mk.name] += end.Sub(mk.at).Seconds()
		}
		addCounters(w.tr.counters, cfg.Obs)
	}
	return func() (exact, error) {
		if err := checkFlow(rep); err != nil {
			return exact{}, err
		}
		if want := w.want[k]; rep.XMapDigest != want.XMapDigest || rep.TotalBits != want.TotalBits {
			return exact{}, fmt.Errorf("spec %d: digest %.12s and %d bits, warm-up gave %.12s and %d",
				k, rep.XMapDigest, rep.TotalBits, want.XMapDigest, want.TotalBits)
		}
		return exact{bits: rep.TotalBits, testTime: rep.Replay.NormalizedTime}, nil
	}, nil
}

func isFlowStage(name string) bool {
	for _, s := range flowStages {
		if s == name {
			return true
		}
	}
	return false
}

// layers reports each stage's mean seconds per op and the unattributed
// remainder, so that the stages plus flow.unattributed_s sum exactly to
// flow.op_s.
func (w *flowWorkload) layers(out *metrics) {
	ops := float64(w.tr.ops)
	var staged float64
	for _, s := range flowStages {
		out.set("flow."+s+"_s", w.tr.stage[s]/ops)
		staged += w.tr.stage[s]
	}
	out.set("flow.op_s", w.tr.wall/ops)
	out.set("flow.unattributed_s", (w.tr.wall-staged)/ops)

	c := w.tr.counters
	cycles := float64(c["flow.cycles.replayed"])
	out.set("replay.cycles", cycles/ops)
	out.set("replay.halts", float64(c["xcancel.halts"])/ops)
	out.set("replay.signatures", float64(c["xcancel.signatures"])/ops)
	out.set("replay.halt_budget_use", float64(c["xcancel.halts"])/float64(c["xcancel.halts.planned"]))
	out.set("replay.us_per_cycle", w.tr.stage["replay"]/cycles*1e6)
	gates := float64(c["fault.ppsfp.gates.evaluated"])
	out.set("faultsim.gates_evaluated", gates/ops)
	out.set("faultsim.ns_per_gate", w.tr.stage["faultsim"]/gates*1e9)
}

func (w *flowWorkload) close() {}
