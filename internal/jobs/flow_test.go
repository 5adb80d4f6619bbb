package jobs

import (
	"context"
	"errors"
	"testing"
	"time"

	"xhybrid"
	"xhybrid/internal/obs"
)

// testFlowSpec is a small deterministic end-to-end flow: multi-round under
// greedy, sub-second on one CPU.
func testFlowSpec() xhybrid.FlowSpec {
	return xhybrid.FlowSpec{
		Cells:       256,
		Chains:      16,
		XClusters:   8,
		CircuitSeed: 5,
		StimSeed:    9,
		Patterns:    96,
		MISRSize:    8,
		Q:           2,
		Strategy:    "greedy",
		Workers:     2,
	}
}

// assertFlowReportsMatch compares the deterministic legs of two flow
// reports — the X-map digest, the plan accounting and the replay — and
// never the stage wall times.
func assertFlowReportsMatch(t *testing.T, got, want *xhybrid.FlowReport) {
	t.Helper()
	if got.XMapDigest != want.XMapDigest {
		t.Errorf("X-map digest %s, want %s", got.XMapDigest, want.XMapDigest)
	}
	if got.TotalBits != want.TotalBits || got.Partitions != want.Partitions || got.Rounds != want.Rounds {
		t.Errorf("plan (%d bits, %d partitions, %d rounds), want (%d, %d, %d)",
			got.TotalBits, got.Partitions, got.Rounds,
			want.TotalBits, want.Partitions, want.Rounds)
	}
	if got.Replay != want.Replay {
		t.Errorf("replay %+v, want %+v", got.Replay, want.Replay)
	}
	if !got.Preserved {
		t.Error("flow report's preservation verdict is false")
	}
}

func TestFlowJobLifecycle(t *testing.T) {
	rec := obs.New()
	m, err := Open(t.TempDir(), Config{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	want, err := xhybrid.RunFlow(testFlowSpec())
	if err != nil {
		t.Fatal(err)
	}

	meta, err := m.SubmitFlow(context.Background(), testFlowSpec())
	if err != nil {
		t.Fatal(err)
	}
	if meta.Kind != KindFlow {
		t.Fatalf("submitted kind %q, want %q", meta.Kind, KindFlow)
	}
	st := waitTerminal(t, m, meta.ID)
	if st.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", st.State, st.Error)
	}

	rep, err := m.FlowResult(context.Background(), meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertFlowReportsMatch(t, rep, want)

	// The kind gate: a flow job has no partition plan, and vice versa.
	if _, err := m.Result(context.Background(), meta.ID); !errors.Is(err, ErrNotDone) {
		t.Errorf("Result(flow job) = %v, want ErrNotDone", err)
	}
	pmeta, err := m.Submit(context.Background(), testInput(t), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, pmeta.ID)
	if _, err := m.FlowResult(context.Background(), pmeta.ID); !errors.Is(err, ErrNotDone) {
		t.Errorf("FlowResult(partition job) = %v, want ErrNotDone", err)
	}

	if got := rec.Snapshot().CounterValue("jobs.completed"); got != 2 {
		t.Errorf("jobs.completed = %d, want 2", got)
	}
}

func TestSubmitFlowRejectsBadSpec(t *testing.T) {
	m, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	bad := testFlowSpec()
	bad.Chains = 7 // does not divide 256
	if _, err := m.SubmitFlow(context.Background(), bad); err == nil {
		t.Fatal("SubmitFlow accepted an invalid spec")
	}
}

// TestFlowJobStopResumes is the flow edition of the crash drill: the
// manager stops while the job is running, the spooled record stays
// recoverable, and a fresh manager over the same spool re-runs the job to
// the same deterministic report as an uninterrupted run.
func TestFlowJobStopResumes(t *testing.T) {
	dir := t.TempDir()
	want, err := xhybrid.RunFlow(testFlowSpec())
	if err != nil {
		t.Fatal(err)
	}

	hit := make(chan struct{})
	gate := make(chan struct{})
	recA := obs.New()
	mA, err := Open(dir, Config{FS: stopGateFS(hit, gate), Obs: recA})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := mA.SubmitFlow(context.Background(), testFlowSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-hit
	stopped := make(chan struct{})
	go func() { mA.Stop(); close(stopped) }()
	time.Sleep(20 * time.Millisecond) // let Stop cancel the base context
	close(gate)
	<-stopped

	store, err := NewStore(dir, nil, RetryPolicy{}, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := store.ReadMeta(context.Background(), meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State.Terminal() {
		t.Fatalf("interrupted flow job spooled as %s, want a recoverable state", onDisk.State)
	}
	if onDisk.Kind != KindFlow {
		t.Fatalf("spooled kind %q, want %q", onDisk.Kind, KindFlow)
	}
	if got := recA.Snapshot().CounterValue("jobs.interrupted"); got != 1 {
		t.Errorf("jobs.interrupted = %d, want 1", got)
	}

	rec := obs.New()
	mB, err := Open(dir, Config{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer mB.Stop()
	st := waitTerminal(t, mB, meta.ID)
	if st.State != StateDone {
		t.Fatalf("recovered flow job = %s (error %q), want done", st.State, st.Error)
	}
	if st.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1", st.Resumes)
	}
	rep, err := mB.FlowResult(context.Background(), meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertFlowReportsMatch(t, rep, want)
	if got := rec.Snapshot().CounterValue("jobs.recovered"); got != 1 {
		t.Errorf("jobs.recovered = %d, want 1", got)
	}
}
