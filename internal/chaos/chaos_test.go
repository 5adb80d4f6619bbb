package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"xhybrid"
	"xhybrid/internal/jobs"
	"xhybrid/internal/obs"
)

// fastRetry keeps backoff delays microscopic so fault scenarios run in
// milliseconds.
func fastRetry() jobs.RetryPolicy {
	return jobs.RetryPolicy{Attempts: 4, Base: time.Millisecond, Max: 2 * time.Millisecond}
}

// chaosInput is a deterministic pseudo-random X-map big enough for a
// multi-round run.
func chaosInput(t *testing.T) *xhybrid.XLocations {
	t.Helper()
	x, err := xhybrid.NewXLocations(8, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	s := uint64(0x9e3779b97f4a7c15)
	for p := 0; p < 64; p++ {
		for c := 0; c < 8; c++ {
			for pos := 0; pos < 4; pos++ {
				s = s*6364136223846793005 + 1442695040888963407
				if (s>>33)%10 < 3 {
					if err := x.AddX(p, c, pos); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return x
}

// chaosOptions is fully specified so no default-filling is involved.
func chaosOptions() jobs.Options {
	return jobs.Options{MISRSize: 16, Q: 4, Strategy: "greedy", Seed: 5}
}

// reference runs the identical engine configuration synchronously.
func reference(t *testing.T, x *xhybrid.XLocations) []byte {
	t.Helper()
	o := chaosOptions()
	plan, err := xhybrid.PartitionCtx(context.Background(), x, xhybrid.Options{
		MISRSize: o.MISRSize, Q: o.Q, Strategy: o.Strategy, Seed: o.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func waitTerminal(t *testing.T, m *jobs.Manager, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := m.Get(context.Background(), id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for job %s (state %s)", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func resultJSON(t *testing.T, m *jobs.Manager, id string) []byte {
	t.Helper()
	plan, err := m.Result(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTransientFaultsAbsorbedByRetry: scattered one-off I/O failures on
// metadata renames, input reads and result writes must be retried away —
// the job completes with the exact reference plan.
func TestTransientFaultsAbsorbedByRetry(t *testing.T) {
	x := chaosInput(t)
	want := reference(t, x)

	fsys := Wrap(nil,
		&Fault{Op: OpRename, Base: "job.json", Fail: 2},
		&Fault{Op: OpRead, Base: "input.json", Fail: 1},
		&Fault{Op: OpWrite, Base: "result.json.tmp", Fail: 1},
	)
	rec := obs.New()
	m, err := jobs.Open(t.TempDir(), jobs.Config{FS: fsys, Retry: fastRetry(), Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	meta, err := m.Submit(context.Background(), x, chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, meta.ID)
	if st.State != jobs.StateDone {
		t.Fatalf("job = %s (error %q), want done despite transient faults", st.State, st.Error)
	}
	if got := resultJSON(t, m, meta.ID); !bytes.Equal(got, want) {
		t.Errorf("plan under transient faults differs from reference")
	}
	if got := fsys.Injected(); got != 4 {
		t.Errorf("injected faults = %d, want 4", got)
	}
	if got := rec.Snapshot().CounterValue("jobs.spool.retries"); got < 4 {
		t.Errorf("jobs.spool.retries = %d, want >= 4", got)
	}
}

// TestSlowReadersStillComplete: latency injection on every read path must
// only slow the job down, never change its result.
func TestSlowReadersStillComplete(t *testing.T) {
	x := chaosInput(t)
	want := reference(t, x)

	fsys := Wrap(nil, &Fault{Op: OpRead, Delay: 3 * time.Millisecond})
	m, err := jobs.Open(t.TempDir(), jobs.Config{FS: fsys, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	meta, err := m.Submit(context.Background(), x, chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, meta.ID); st.State != jobs.StateDone {
		t.Fatalf("job = %s (error %q), want done", st.State, st.Error)
	}
	if got := resultJSON(t, m, meta.ID); !bytes.Equal(got, want) {
		t.Errorf("plan under slow readers differs from reference")
	}
}

// TestDeadVolumeFailsSubmitCleanly: when every spool operation fails, a
// submission must come back with an error after the retry budget — no
// hang, no panic, no half-registered job.
func TestDeadVolumeFailsSubmitCleanly(t *testing.T) {
	fsys := Wrap(nil)
	m, err := jobs.Open(t.TempDir(), jobs.Config{FS: fsys, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	fsys.Kill(errors.New("volume detached"))
	if _, err := m.Submit(context.Background(), xhybrid.PaperExample(), chaosOptions()); err == nil {
		t.Fatal("Submit on a dead volume succeeded, want error")
	}
	list, err := m.List(context.Background())
	if err == nil && len(list) != 0 {
		t.Errorf("dead-volume submit left %d jobs registered", len(list))
	}
}

// TestQueueExhaustionUnderSlowIO: slow input reads hold the one run slot,
// the queue seat fills, and the next submission is refused with
// ErrQueueFull instead of piling up.
func TestQueueExhaustionUnderSlowIO(t *testing.T) {
	fsys := Wrap(nil, &Fault{Op: OpRead, Base: "input.json", Delay: 300 * time.Millisecond})
	m, err := jobs.Open(t.TempDir(), jobs.Config{MaxConcurrent: 1, MaxQueue: 1, FS: fsys, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	x := xhybrid.PaperExample()
	opts := jobs.Options{MISRSize: 16, Q: 2, Strategy: "paper"}
	j1, err := m.Submit(context.Background(), x, opts)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if running, _ := m.Depth(); running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job 1 never took the run slot")
		}
		time.Sleep(time.Millisecond)
	}
	j2, err := m.Submit(context.Background(), x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), x, opts); !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	for _, id := range []string{j1.ID, j2.ID} {
		if st := waitTerminal(t, m, id); st.State != jobs.StateDone {
			t.Errorf("job %s = %s (error %q), want done", id, st.State, st.Error)
		}
	}
}

// TestFaultMatching pins the rule engine itself: op/base filters, skip
// arming, fail counts and the kill switch.
func TestFaultMatching(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.txt")

	fsys := Wrap(nil, &Fault{Op: OpWrite, Base: "f.txt", Skip: 1, Fail: 2})
	if err := fsys.WriteFile(path, []byte("one"), 0o644); err != nil {
		t.Fatalf("skipped call failed: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := fsys.WriteFile(path, []byte("x"), 0o644); !errors.Is(err, ErrInjected) {
			t.Fatalf("armed call %d = %v, want ErrInjected", i, err)
		}
	}
	if err := fsys.WriteFile(path, []byte("after"), 0o644); err != nil {
		t.Fatalf("exhausted fault still fired: %v", err)
	}
	if got := fsys.Injected(); got != 2 {
		t.Errorf("Injected = %d, want 2", got)
	}
	// Other ops and other files are untouched.
	if _, err := fsys.ReadFile(path); err != nil {
		t.Errorf("read hit a write fault: %v", err)
	}

	// Kill is global and sticky.
	boom := errors.New("boom")
	fsys.Kill(boom)
	if _, err := fsys.ReadFile(path); !errors.Is(err, boom) {
		t.Errorf("read after Kill = %v, want boom", err)
	}
	if err := fsys.MkdirAll(filepath.Join(dir, "d"), 0o755); !errors.Is(err, boom) {
		t.Errorf("mkdir after Kill = %v, want boom", err)
	}
}
