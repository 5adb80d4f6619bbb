package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"xhybrid"
	"xhybrid/internal/workload"
	"xhybrid/internal/xmap"
)

// planInputs is how many CKT-B/4 maps plan-cktb4 cycles over.
const planInputs = 8

// planWorkload is plan-cktb4: decode the XMAPB bytes of a CKT-B profile map
// at scale 4 (750 patterns × 8,658 cells) and partition it with greedy-cost
// at Workers=1.
type planWorkload struct {
	seed   int64
	bodies [][]byte              // XMAPB encoding of each input map
	refs   []*xhybrid.XLocations // each map decoded once, the checker's reference
	want   []int                 // each map's warm-up TotalBits
	tr     planTrace             // filled by traced ops only
	w1     []float64             // untraced partition seconds
}

// planTrace holds the per-layer samples of traced plan ops.
type planTrace struct {
	decode, part, partW2 []float64
	// Counters summed over the traced ops, their Workers=2 reruns and
	// their paper-strategy reruns.
	counters, pool, paper map[string]int64
	paperRuns             int
}

func newPlanWorkload(seed int64) workloadRunner { return &planWorkload{seed: seed} }

func (w *planWorkload) cycle() int { return planInputs }

func (w *planWorkload) setup(ctx context.Context) error {
	w.tr = planTrace{counters: map[string]int64{}, pool: map[string]int64{}, paper: map[string]int64{}}
	for k := 0; k < planInputs; k++ {
		prof := workload.Scaled(workload.CKTB(), 4)
		prof.Seed = derive(w.seed, "plan", k)
		m, err := prof.Generate()
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := xmap.WriteBinary(&buf, m, prof.Chains, prof.ChainLen); err != nil {
			return err
		}
		x, err := xhybrid.ReadXLocationsBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		plan, err := partitionGreedy(ctx, x, 1, nil)
		if err != nil {
			return err
		}
		if err := checkPlan(x, plan, 32, 7); err != nil {
			return fmt.Errorf("plan-cktb4 warm-up map %d: %w", k, err)
		}
		w.bodies = append(w.bodies, buf.Bytes())
		w.refs = append(w.refs, x)
		w.want = append(w.want, plan.TotalBits)
	}
	return nil
}

// partitionGreedy is the partition call every plan op makes.
func partitionGreedy(ctx context.Context, x *xhybrid.XLocations, workers int, stats *xhybrid.Stats) (*xhybrid.Plan, error) {
	return xhybrid.PartitionCtx(ctx, x, xhybrid.Options{Strategy: "greedy-cost", Workers: workers, Stats: stats})
}

func (w *planWorkload) op(ctx context.Context, i int, traced bool) (func() (exact, error), error) {
	k := i % planInputs
	t0 := time.Now()
	x, err := xhybrid.ReadXLocationsBinary(bytes.NewReader(w.bodies[k]))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	var rec *xhybrid.Stats
	if traced {
		rec = xhybrid.NewStats()
	}
	plan, err := partitionGreedy(ctx, x, 1, rec)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	if traced {
		w.tr.decode = append(w.tr.decode, t1.Sub(t0).Seconds())
		w.tr.part = append(w.tr.part, t2.Sub(t1).Seconds())
		addCounters(w.tr.counters, rec)
	} else {
		w.w1 = append(w.w1, t2.Sub(t1).Seconds())
	}
	return func() (exact, error) {
		if traced {
			// The diagnostics run here, outside the timed op.
			if err := w.diagnose(ctx, x, plan); err != nil {
				return exact{}, err
			}
		}
		if err := checkPlan(w.refs[k], plan, 32, 7); err != nil {
			return exact{}, err
		}
		if plan.TotalBits != w.want[k] {
			return exact{}, fmt.Errorf("map %d: %d bits, warm-up gave %d", k, plan.TotalBits, w.want[k])
		}
		return exact{bits: plan.TotalBits, testTime: plan.TestTimeHybrid}, nil
	}, nil
}

// diagnose reruns a traced op's map twice with stats on. The Workers=2
// rerun is timed against the traced Workers=1 run and yields the pool's
// dispatch counters; its plan must not change with the worker count. The
// paper-strategy rerun exercises the correlation groups, which greedy-cost
// never consults.
func (w *planWorkload) diagnose(ctx context.Context, x *xhybrid.XLocations, w1 *xhybrid.Plan) error {
	rec := xhybrid.NewStats()
	t0 := time.Now()
	plan, err := partitionGreedy(ctx, x, 2, rec)
	if err != nil {
		return err
	}
	w.tr.partW2 = append(w.tr.partW2, time.Since(t0).Seconds())
	addCounters(w.tr.pool, rec)
	if plan.TotalBits != w1.TotalBits || len(plan.Partitions) != len(w1.Partitions) {
		return fmt.Errorf("Workers=2 plan (%d bits, %d partitions) differs from Workers=1 (%d, %d)",
			plan.TotalBits, len(plan.Partitions), w1.TotalBits, len(w1.Partitions))
	}
	rec = xhybrid.NewStats()
	if _, err := xhybrid.PartitionCtx(ctx, x, xhybrid.Options{Strategy: "paper", Workers: 1, Stats: rec}); err != nil {
		return err
	}
	addCounters(w.tr.paper, rec)
	w.tr.paperRuns++
	return nil
}

func (w *planWorkload) layers(out *metrics) {
	ops := float64(len(w.tr.part))
	c := w.tr.counters
	out.set("xmap.decode_s", quantile(w.tr.decode, 0.5))
	out.set("core.partition_s", quantile(w.tr.part, 0.5))
	out.set("core.partition_w1_s", quantile(w.w1, 0.5))
	out.set("core.partition_w2_s", quantile(w.tr.partW2, 0.5))
	out.set("core.worker_speedup", quantile(w.tr.part, 0.5)/quantile(w.tr.partW2, 0.5))
	out.set("core.splits_scored", float64(c["core.splits.scored"])/ops)
	out.set("core.maskedx_recomputes", float64(c["core.maskedx.recomputes"])/ops)
	out.set("core.state_hit_ratio", share(c["core.state.cache.hits"], c["core.state.cache.misses"]))
	paper := w.tr.paper
	out.set("correlation.cells_counted", float64(paper["correlation.cells.counted"])/float64(w.tr.paperRuns))
	out.set("core.groups_hit_ratio", share(paper["core.groups.cache.hits"], paper["core.groups.cache.misses"]))
	out.set("core.rounds_accepted_ratio", share(c["core.rounds.accepted"], c["core.rounds"]-c["core.rounds.accepted"]))
	out.set("pool.dispatch_ratio", share(w.tr.pool["core.pool.chunks.dispatched"], w.tr.pool["core.pool.chunks.inline"]))
}

func (w *planWorkload) close() {}

// addCounters adds every counter of rec's snapshot into sums.
func addCounters(sums map[string]int64, rec *xhybrid.Stats) {
	for _, c := range rec.Snapshot().Counters {
		sums[c.Name] += c.Value
	}
}
