package jobs

// Spool recovery under corruption: every test fabricates the on-disk
// aftermath of a crash (a job spooled as "running" with damaged
// checkpoint files) and asserts that a fresh manager still finishes the
// job with a plan byte-identical to an uninterrupted run — falling back
// from the current checkpoint to the previous one to a from-scratch
// restart as the damage deepens.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xhybrid"
	"xhybrid/internal/obs"
)

// spoolCompletedJob runs a job to completion and then rewrites its spool
// to look crash-interrupted: result removed, state forced back to
// running. The checkpoint pair is left exactly as the run produced it.
func spoolCompletedJob(t *testing.T, dir string) (id string, x *xhybrid.XLocations, wantJSON, wantText []byte) {
	t.Helper()
	x = testInput(t)
	_, wantJSON, wantText = referencePlan(t, x, testOptions())

	m, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := m.Submit(context.Background(), x, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, meta.ID); st.State != StateDone {
		t.Fatalf("setup job = %s (error %q), want done", st.State, st.Error)
	}
	m.Stop()

	// Both checkpoint slots must exist for the fallback tests to mean
	// anything (checkpointEvery=1 on a multi-round run guarantees it).
	for _, f := range []string{checkpointFile, checkpointPrevFile} {
		if _, err := os.Stat(filepath.Join(dir, meta.ID, f)); err != nil {
			t.Fatalf("setup did not leave %s: %v", f, err)
		}
	}

	if err := os.Remove(filepath.Join(dir, meta.ID, resultFile)); err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(dir, nil, RetryPolicy{}, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := store.ReadMeta(context.Background(), meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	onDisk.State = StateRunning
	if err := store.WriteMeta(context.Background(), onDisk); err != nil {
		t.Fatal(err)
	}
	return meta.ID, x, wantJSON, wantText
}

// recoverAndCheck opens a manager over the damaged spool and asserts the
// job finishes with the exact reference plan.
func recoverAndCheck(t *testing.T, dir, id string, x *xhybrid.XLocations, wantJSON, wantText []byte) *obs.Recorder {
	t.Helper()
	rec := obs.New()
	m, err := Open(dir, Config{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if st := waitTerminal(t, m, id); st.State != StateDone {
		t.Fatalf("recovered job = %s (error %q), want done", st.State, st.Error)
	}
	plan, err := m.Result(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(planJSON(t, plan), wantJSON) {
		t.Errorf("recovered plan JSON differs from uninterrupted run")
	}
	if !bytes.Equal(planText(t, plan, x), wantText) {
		t.Errorf("recovered plan text differs from uninterrupted run")
	}
	if got := rec.Snapshot().CounterValue("jobs.recovered"); got != 1 {
		t.Errorf("jobs.recovered = %d, want 1", got)
	}
	return rec
}

// TestRecoverIntactCheckpoint: the clean crash — both checkpoints whole.
func TestRecoverIntactCheckpoint(t *testing.T) {
	dir := t.TempDir()
	id, x, wantJSON, wantText := spoolCompletedJob(t, dir)
	recoverAndCheck(t, dir, id, x, wantJSON, wantText)
}

// TestRecoverTruncatedCheckpoint: the current checkpoint is torn in half
// (a crash mid-write on a filesystem without atomic rename, or disk
// corruption); recovery must detect it at decode time and resume from the
// previous checkpoint.
func TestRecoverTruncatedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	id, x, wantJSON, wantText := spoolCompletedJob(t, dir)

	cur := filepath.Join(dir, id, checkpointFile)
	data, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cur, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	recoverAndCheck(t, dir, id, x, wantJSON, wantText)
}

// TestRecoverTamperedCheckpoint: the current checkpoint decodes fine but
// its recorded state is wrong (bit rot that kept JSON valid). The engine
// rejects it during replay verification and recovery falls back to the
// previous checkpoint.
func TestRecoverTamperedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	id, x, wantJSON, wantText := spoolCompletedJob(t, dir)

	cur := filepath.Join(dir, id, checkpointFile)
	data, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["stateDigest"] = json.RawMessage("12345")
	tampered, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cur, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := recoverAndCheck(t, dir, id, x, wantJSON, wantText)
	if got := rec.Snapshot().CounterValue("jobs.checkpoints.rejected"); got != 1 {
		t.Errorf("jobs.checkpoints.rejected = %d, want 1 (tampered current checkpoint)", got)
	}
}

// TestRecoverAllCheckpointsCorrupt: both slots are garbage; recovery
// restarts from scratch and — the engine being deterministic — still
// lands on the byte-identical plan.
func TestRecoverAllCheckpointsCorrupt(t *testing.T) {
	dir := t.TempDir()
	id, x, wantJSON, wantText := spoolCompletedJob(t, dir)

	for _, f := range []string{checkpointFile, checkpointPrevFile} {
		if err := os.WriteFile(filepath.Join(dir, id, f), []byte("not json{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recoverAndCheck(t, dir, id, x, wantJSON, wantText)
}

// TestListSkipsHalfCreatedJob: a job directory with no job.json (crash
// between MkdirAll and the first meta write) must not break recovery or
// listing.
func TestListSkipsHalfCreatedJob(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "torn-job"), 0o755); err != nil {
		t.Fatal(err)
	}
	m, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	list, err := m.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("List = %+v, want empty", list)
	}
	if _, err := m.Get(context.Background(), "torn-job"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(torn-job) = %v, want ErrNotFound", err)
	}
}

// TestRecoverRemovedStrategy: a job spooled before its strategy left the
// registry (here the former "xcode-hybrid") must not wedge recovery. The
// recovered job fails with the enumerating unknown-strategy error, and a
// second spooled job still completes with the reference plan.
func TestRecoverRemovedStrategy(t *testing.T) {
	dir := t.TempDir()
	x := testInput(t)
	_, wantJSON, wantText := referencePlan(t, x, testOptions())
	good, err := testOptions().Normalized(8)
	if err != nil {
		t.Fatal(err)
	}
	removed := good
	removed.Strategy = "xcode-hybrid"

	store, err := NewStore(dir, nil, RetryPolicy{}, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	for _, meta := range []Meta{
		{ID: "removed-strategy", State: StateRunning, Options: removed},
		{ID: "valid-strategy", State: StateSubmitted, Options: good},
	} {
		if err := store.CreateJob(context.Background(), meta, x); err != nil {
			t.Fatal(err)
		}
	}

	rec := obs.New()
	m, err := Open(dir, Config{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if got := rec.Snapshot().CounterValue("jobs.recovered"); got != 2 {
		t.Fatalf("jobs.recovered = %d, want 2", got)
	}

	st := waitTerminal(t, m, "removed-strategy")
	if st.State != StateFailed {
		t.Fatalf("job with a removed strategy = %s, want failed", st.State)
	}
	// The spool keeps the error's text; it must be the text of an error
	// wrapping ErrUnknownStrategy, naming the rejected strategy.
	_, lookupErr := xhybrid.PartitionCtx(context.Background(), x, removed.xhybrid())
	if !errors.Is(lookupErr, xhybrid.ErrUnknownStrategy) {
		t.Fatalf("partitioning under %q: %v, want ErrUnknownStrategy", removed.Strategy, lookupErr)
	}
	if st.Error != lookupErr.Error() || !strings.Contains(st.Error, `"xcode-hybrid"`) {
		t.Fatalf("job error %q, want %q", st.Error, lookupErr)
	}

	if st := waitTerminal(t, m, "valid-strategy"); st.State != StateDone {
		t.Fatalf("second recovered job = %s (error %q), want done", st.State, st.Error)
	}
	plan, err := m.Result(context.Background(), "valid-strategy")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(planJSON(t, plan), wantJSON) || !bytes.Equal(planText(t, plan, x), wantText) {
		t.Error("second recovered job's plan differs from the uninterrupted run")
	}
}

// TestRecoverLegacyTenantField: job records once carried the submitting
// tenant's id. A non-terminal job spooled with that field must still be
// recovered and finish with the reference plan.
func TestRecoverLegacyTenantField(t *testing.T) {
	dir := t.TempDir()
	x := testInput(t)
	_, wantJSON, wantText := referencePlan(t, x, testOptions())
	opts, err := testOptions().Normalized(8)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(dir, nil, RetryPolicy{}, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	const id = "legacy-tenant"
	if err := store.CreateJob(context.Background(), Meta{ID: id, State: StateRunning, Options: opts}, x); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, id, metaFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var record map[string]any
	if err := json.Unmarshal(data, &record); err != nil {
		t.Fatal(err)
	}
	record["tenant"] = "acme"
	if data, err = json.Marshal(record); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"tenant":"acme"`)) {
		t.Fatalf("fixture lacks the legacy field: %s", data)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := obs.New()
	m, err := Open(dir, Config{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if got := rec.Snapshot().CounterValue("jobs.recovered"); got != 1 {
		t.Fatalf("jobs.recovered = %d, want 1", got)
	}
	if st := waitTerminal(t, m, id); st.State != StateDone {
		t.Fatalf("recovered job = %s (error %q), want done", st.State, st.Error)
	}
	plan, err := m.Result(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(planJSON(t, plan), wantJSON) || !bytes.Equal(planText(t, plan, x), wantText) {
		t.Error("recovered job's plan differs from the direct run")
	}
}
