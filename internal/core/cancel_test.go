package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"xhybrid/internal/misr"
	"xhybrid/internal/obs"
	"xhybrid/internal/workload"
	"xhybrid/internal/xcancel"
)

// hookedGreedy is greedy-cost with a hook that runs at the start of its
// second Select, between the first committed round and the second round's
// candidate pricing. Cancelling from inside the run puts the cancellation
// mid-run whatever the engine's speed; a wall-clock timer would race a run
// that may finish first. One value serves one run.
type hookedGreedy struct {
	selects int
	hook    func()
}

func (s *hookedGreedy) Name() string { return "hooked-greedy" }

func (s *hookedGreedy) Select(sc *Selection) []Split {
	s.selects++
	if s.selects == 2 {
		s.hook()
	}
	return StrategyGreedyCost.Select(sc)
}

// TestRunCtxCancelMidRunNoLeaks cancels a paper-scale greedy run (CKT-B:
// 3000 patterns, 36k cells) between its first and second rounds and checks
// the cancellation guarantees: the error surfaces as context.Canceled, no
// partial result escapes, the return is prompt (the scoring loops poll the
// context every few microseconds of work, not per round), no candidate is
// priced after the cancel (core.score.delta stops moving), and the
// evaluator's pool goroutines are all released — the goroutine count
// returns to its pre-run level.
func TestRunCtxCancelMidRunNoLeaks(t *testing.T) {
	prof := workload.CKTB()
	m, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var canceledAt time.Time
	deltaAtCancel := int64(-1)
	strat := &hookedGreedy{hook: func() {
		cancel()
		canceledAt = time.Now()
		deltaAtCancel = rec.Snapshot().CounterValue("core.score.delta")
	}}
	params := Params{
		Geom:     prof.Geometry(),
		Cancel:   xcancel.Config{MISR: misr.MustStandard(32), Q: 7},
		Strategy: strat,
		Workers:  8,
		Obs:      rec,
	}

	before := runtime.NumGoroutine()
	res, err := RunCtx(ctx, m, params)

	if err == nil {
		t.Fatal("run completed despite mid-run cancel (uncancelable path?)")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
	}
	if res != nil {
		t.Fatal("canceled run returned a partial result")
	}
	if strat.selects < 2 {
		t.Fatalf("run stopped after %d selections; the cancel never ran", strat.selects)
	}
	// A prompt abort returns well inside this budget even under -race.
	if elapsed := time.Since(canceledAt); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	if got := rec.Snapshot().CounterValue("core.score.delta"); got != deltaAtCancel {
		t.Fatalf("core.score.delta moved from %d to %d after the cancel", deltaAtCancel, got)
	}
	waitForGoroutines(t, before)
}

// TestRunCtxDeadline covers the deadline flavor on the same workload: the
// second selection waits out the deadline, and the run must stop without
// pricing another candidate.
func TestRunCtxDeadline(t *testing.T) {
	prof := workload.CKTB()
	m, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	deltaAtDeadline := int64(-1)
	_, err = RunCtx(ctx, m, Params{
		Geom:   prof.Geometry(),
		Cancel: xcancel.Config{MISR: misr.MustStandard(32), Q: 7},
		Strategy: &hookedGreedy{hook: func() {
			<-ctx.Done()
			deltaAtDeadline = rec.Snapshot().CounterValue("core.score.delta")
		}},
		Workers: 4,
		Obs:     rec,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if deltaAtDeadline >= 0 {
		if got := rec.Snapshot().CounterValue("core.score.delta"); got != deltaAtDeadline {
			t.Fatalf("core.score.delta moved from %d to %d after the deadline", deltaAtDeadline, got)
		}
	}
}

// TestRunCtxPreCanceled: a dead context aborts before any compute.
func TestRunCtxPreCanceled(t *testing.T) {
	m := fig4()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	if _, err := RunCtx(ctx, m, fig4Params(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx err = %v, want context.Canceled", err)
	}
	if _, err := RunClusteredCtx(ctx, m, fig4Params(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunClusteredCtx err = %v, want context.Canceled", err)
	}
	if _, err := EvaluateCtx(ctx, m, fig4Params(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("EvaluateCtx err = %v, want context.Canceled", err)
	}
	waitForGoroutines(t, before)
}

// TestRunCtxBackgroundMatchesRun: threading a live context changes nothing
// about the plan (Run is RunCtx(Background)).
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	m := fig4()
	p := fig4Params(2)
	want, err := Run(m, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCtx(context.Background(), m, p)
	if err != nil {
		t.Fatal(err)
	}
	if want.TotalBits != got.TotalBits || len(want.Partitions) != len(got.Partitions) || len(want.Rounds) != len(got.Rounds) {
		t.Fatalf("RunCtx(Background) diverged: %+v vs %+v", want, got)
	}
}

// waitForGoroutines polls until the goroutine count drops back to the
// pre-run baseline (the canceling helper and pool workers unwind
// asynchronously after RunCtx returns).
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancel: before=%d now=%d", before, now)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
