package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"xhybrid"
	"xhybrid/internal/obs"
)

// testInput builds a deterministic pseudo-random X-map big enough for a
// multi-round greedy run.
func testInput(t *testing.T) *xhybrid.XLocations {
	t.Helper()
	x, err := xhybrid.NewXLocations(8, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	s := uint64(0x2545f4914f6cdd1d)
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

func testOptions() Options {
	return Options{MISRSize: 16, Q: 4, Strategy: "greedy", Seed: 3}
}

// referencePlan runs the same normalized options synchronously — the
// byte-identical yardstick every async/recovered run is held to.
func referencePlan(t *testing.T, x *xhybrid.XLocations, opts Options) (*xhybrid.Plan, []byte, []byte) {
	t.Helper()
	norm, err := opts.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := xhybrid.PartitionCtx(context.Background(), x, norm.xhybrid())
	if err != nil {
		t.Fatal(err)
	}
	return plan, planJSON(t, plan), planText(t, plan, x)
}

func planJSON(t *testing.T, plan *xhybrid.Plan) []byte {
	t.Helper()
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func planText(t *testing.T, plan *xhybrid.Plan, x *xhybrid.XLocations) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := plan.WriteText(&buf, x, true); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	var st Status
	waitFor(t, "job "+id+" to finish", func() bool {
		var err error
		st, err = m.Get(context.Background(), id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		return st.State.Terminal()
	})
	return st
}

// hookFS wraps an FS with before-read/before-write hooks keyed on the
// file's base name — the blocking gates the lifecycle tests use.
type hookFS struct {
	FS
	mu          sync.Mutex
	beforeRead  func(name string)
	beforeWrite func(name string)
}

func (h *hookFS) hooks() (r, w func(string)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.beforeRead, h.beforeWrite
}

func (h *hookFS) ReadFile(name string) ([]byte, error) {
	if r, _ := h.hooks(); r != nil {
		r(name)
	}
	return h.FS.ReadFile(name)
}

func (h *hookFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	if _, w := h.hooks(); w != nil {
		w(name)
	}
	return h.FS.WriteFile(name, data, perm)
}

// gatedInputFS blocks every input.json read until the gate closes.
func gatedInputFS(gate <-chan struct{}) *hookFS {
	return &hookFS{FS: OSFS{}, beforeRead: func(name string) {
		if filepath.Base(name) == inputFile {
			<-gate
		}
	}}
}

func TestJobLifecycle(t *testing.T) {
	rec := obs.New()
	m, err := Open(t.TempDir(), Config{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	x := testInput(t)
	_, wantJSON, wantText := referencePlan(t, x, testOptions())

	meta, err := m.Submit(context.Background(), x, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if meta.State != StateSubmitted || meta.ID == "" || meta.Created.IsZero() {
		t.Fatalf("unexpected submit meta: %+v", meta)
	}
	st := waitTerminal(t, m, meta.ID)
	if st.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", st.State, st.Error)
	}
	if st.Finished.IsZero() || st.Started.IsZero() {
		t.Fatalf("done job missing timestamps: %+v", st.Meta)
	}

	plan, err := m.Result(context.Background(), meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := planJSON(t, plan); !bytes.Equal(got, wantJSON) {
		t.Errorf("async result JSON differs from synchronous run")
	}
	in, err := m.Input(context.Background(), meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := planText(t, plan, in); !bytes.Equal(got, wantText) {
		t.Errorf("async result text rendering differs from synchronous run")
	}

	list, err := m.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != meta.ID {
		t.Fatalf("List = %+v, want the one job", list)
	}

	snap := rec.Snapshot()
	if got := snap.CounterValue("jobs.submitted"); got != 1 {
		t.Errorf("jobs.submitted = %d, want 1", got)
	}
	if got := snap.CounterValue("jobs.completed"); got != 1 {
		t.Errorf("jobs.completed = %d, want 1", got)
	}
}

func TestJobNotFoundAndNotDone(t *testing.T) {
	m, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	if _, err := m.Get(context.Background(), "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(unknown) = %v, want ErrNotFound", err)
	}
	if _, err := m.Result(context.Background(), "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Result(unknown) = %v, want ErrNotFound", err)
	}
	if err := m.Cancel(context.Background(), "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel(unknown) = %v, want ErrNotFound", err)
	}

	// A job failed by bad engine options reports ErrNotDone with the cause.
	bad := Options{MISRSize: 16, Q: 40, Strategy: "greedy"} // q too large
	meta, err := m.Submit(context.Background(), xhybrid.PaperExample(), bad)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, meta.ID)
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("state = %s (error %q), want failed with a cause", st.State, st.Error)
	}
	if _, err := m.Result(context.Background(), meta.ID); !errors.Is(err, ErrNotDone) {
		t.Errorf("Result(failed) = %v, want ErrNotDone", err)
	}
}

func TestSubmitRejectsUnknownStrategy(t *testing.T) {
	m, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if _, err := m.Submit(context.Background(), xhybrid.PaperExample(), Options{Strategy: "divine"}); err == nil {
		t.Fatal("Submit with unknown strategy succeeded, want error")
	}
}

func TestQueueFull(t *testing.T) {
	gate := make(chan struct{})
	m, err := Open(t.TempDir(), Config{MaxConcurrent: 1, MaxQueue: 1, FS: gatedInputFS(gate)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	x := xhybrid.PaperExample()
	opts := Options{MISRSize: 16, Q: 2}
	j1, err := m.Submit(context.Background(), x, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until j1 holds the run slot (blocked reading its input) so j2
	// deterministically occupies the one queue seat.
	waitFor(t, "job 1 to take the run slot", func() bool {
		running, _ := m.Depth()
		return running == 1
	})
	j2, err := m.Submit(context.Background(), x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), x, opts); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}

	close(gate)
	for _, id := range []string{j1.ID, j2.ID} {
		if st := waitTerminal(t, m, id); st.State != StateDone {
			t.Errorf("job %s = %s (error %q), want done", id, st.State, st.Error)
		}
	}
}

func TestCancel(t *testing.T) {
	gate := make(chan struct{})
	rec := obs.New()
	m, err := Open(t.TempDir(), Config{FS: gatedInputFS(gate), Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	meta, err := m.Submit(context.Background(), testInput(t), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to start", func() bool {
		st, err := m.Get(context.Background(), meta.ID)
		return err == nil && st.State == StateRunning
	})
	if err := m.Cancel(context.Background(), meta.ID); err != nil {
		t.Fatal(err)
	}
	close(gate)

	st := waitTerminal(t, m, meta.ID)
	if st.State != StateFailed || st.Error != "job canceled" {
		t.Fatalf("state = %s (error %q), want failed/job canceled", st.State, st.Error)
	}
	if _, err := m.Result(context.Background(), meta.ID); !errors.Is(err, ErrNotDone) {
		t.Errorf("Result(canceled) = %v, want ErrNotDone", err)
	}
	// Cancel is idempotent on terminal jobs.
	if err := m.Cancel(context.Background(), meta.ID); err != nil {
		t.Errorf("second Cancel = %v, want nil", err)
	}
	if got := rec.Snapshot().CounterValue("jobs.canceled"); got != 1 {
		t.Errorf("jobs.canceled = %d, want 1", got)
	}
}

// stopGateFS signals hit and then blocks on gate at the first input.json
// read, which follows the job's "running" state write: the job is frozen
// mid-run, at a known point, while the test stops the manager.
func stopGateFS(hit, gate chan struct{}) *hookFS {
	var once sync.Once
	return &hookFS{FS: OSFS{}, beforeRead: func(name string) {
		if filepath.Base(name) == inputFile {
			once.Do(func() { close(hit) })
			<-gate
		}
	}}
}

// TestStopInterruptsResumably is the in-process crash drill: the manager
// is stopped while the job is running, the spooled state stays "running",
// and a fresh manager over the same spool re-runs the job to a plan
// byte-identical to an uninterrupted run.
func TestStopInterruptsResumably(t *testing.T) {
	dir := t.TempDir()
	x := testInput(t)
	_, wantJSON, wantText := referencePlan(t, x, testOptions())

	hit := make(chan struct{})
	gate := make(chan struct{})
	fsys := stopGateFS(hit, gate)

	recA := obs.New()
	mA, err := Open(dir, Config{FS: fsys, Obs: recA})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := mA.Submit(context.Background(), x, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	<-hit
	stopped := make(chan struct{})
	go func() { mA.Stop(); close(stopped) }()
	time.Sleep(20 * time.Millisecond) // let Stop cancel the base context
	close(gate)
	<-stopped

	// The spooled record must still be non-terminal — that is what makes
	// the job recoverable.
	store, err := NewStore(dir, nil, RetryPolicy{}, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := store.ReadMeta(context.Background(), meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.State.Terminal() {
		t.Fatalf("interrupted job spooled as %s, want a recoverable state", onDisk.State)
	}
	if got := recA.Snapshot().CounterValue("jobs.interrupted"); got != 1 {
		t.Errorf("jobs.interrupted = %d, want 1", got)
	}

	// Second manager: recovery must finish the job with the exact plan.
	recB := obs.New()
	mB, err := Open(dir, Config{Obs: recB})
	if err != nil {
		t.Fatal(err)
	}
	defer mB.Stop()
	st := waitTerminal(t, mB, meta.ID)
	if st.State != StateDone {
		t.Fatalf("recovered job = %s (error %q), want done", st.State, st.Error)
	}
	if st.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1", st.Resumes)
	}
	plan, err := mB.Result(context.Background(), meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(planJSON(t, plan), wantJSON) {
		t.Errorf("recovered plan JSON differs from uninterrupted run")
	}
	if !bytes.Equal(planText(t, plan, x), wantText) {
		t.Errorf("recovered plan text differs from uninterrupted run")
	}
	snap := recB.Snapshot()
	if got := snap.CounterValue("jobs.recovered"); got != 1 {
		t.Errorf("jobs.recovered = %d, want 1", got)
	}
	if got := snap.CounterValue("jobs.completed"); got != 1 {
		t.Errorf("jobs.completed = %d, want 1", got)
	}
}

func TestOptionsNormalize(t *testing.T) {
	norm, err := Options{}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	want := Options{MISRSize: 32, Q: 7, Strategy: "paper"}
	if norm != want {
		t.Errorf("normalize(zero) = %+v, want %+v", norm, want)
	}
	norm, err = Options{MISRSize: 16, Q: 3, Strategy: "greedy"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Q != 3 || norm.MISRSize != 16 {
		t.Errorf("normalize kept values wrong: %+v", norm)
	}
	if _, err := (Options{Strategy: "nope"}).Normalized(); err == nil {
		t.Error("normalize accepted unknown strategy")
	}
	// Legacy alias canonicalizes at the spool boundary: records never carry
	// the "greedy" spelling again.
	norm, err = Options{Strategy: "greedy"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Strategy != "greedy-cost" {
		t.Errorf(`normalize("greedy") strategy = %q, want greedy-cost`, norm.Strategy)
	}
}

// TestOptionsNormalizeRoundTrip pins the spool's defaults to the facade's:
// jobs.Options.Normalized delegates to xhybrid.Options.Normalized, so
// normalizing on either side of the jobs/facade boundary must land on the
// same engine options. Before the delegation the MISRSize=32 / Q=7 defaults
// were hardcoded twice and could drift apart.
func TestOptionsNormalizeRoundTrip(t *testing.T) {
	for _, o := range []Options{
		{},
		{Strategy: "greedy", Seed: 3},
		{MISRSize: 16, Q: 4, Strategy: "paper-retry", MaxRounds: 5, Workers: 2},
		{Q: 1, Strategy: "paper-random"},
	} {
		norm, err := o.Normalized()
		if err != nil {
			t.Fatalf("Normalized(%+v): %v", o, err)
		}
		viaFacade, err := o.xhybrid().Normalized()
		if err != nil {
			t.Fatalf("xhybrid().Normalized() of %+v: %v", o, err)
		}
		if got := norm.xhybrid(); got != viaFacade {
			t.Errorf("options %+v: jobs-normalized %+v != facade-normalized %+v", o, got, viaFacade)
		}
	}
}
