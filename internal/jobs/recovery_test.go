package jobs

// Spool recovery: every test fabricates the on-disk aftermath of a crash
// (a job spooled as non-terminal, some by an older version of this
// package) and asserts that a fresh manager still finishes each job — a
// valid one with a plan byte-identical to a direct run.

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

// recoverAndCheck opens a manager over the spool and asserts the job is
// recovered and finishes with the exact reference plan.
func recoverAndCheck(t *testing.T, dir, id string, x *xhybrid.XLocations) {
	t.Helper()
	_, wantJSON, wantText := referencePlan(t, x, testOptions())
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
		t.Errorf("recovered plan JSON differs from the direct run")
	}
	if !bytes.Equal(planText(t, plan, x), wantText) {
		t.Errorf("recovered plan text differs from the direct run")
	}
	if got := rec.Snapshot().CounterValue("jobs.recovered"); got != 1 {
		t.Errorf("jobs.recovered = %d, want 1", got)
	}
}

// spoolRunningJob spools testInput under testOptions as a "running" job
// and rewrites its job.json through edit: the record a process killed
// mid-run leaves behind. It returns the input and the rewritten record.
func spoolRunningJob(t *testing.T, dir, id string, edit func(record map[string]any)) (*xhybrid.XLocations, []byte) {
	t.Helper()
	x := testInput(t)
	opts, err := testOptions().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(dir, nil, RetryPolicy{}, obs.New())
	if err != nil {
		t.Fatal(err)
	}
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
	edit(record)
	if data, err = json.Marshal(record); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return x, data
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
// registry (here the former "xcode-hybrid" and "paper-retry") must not
// wedge recovery. Each such recovered job fails with the enumerating
// unknown-strategy error, and a valid spooled job still completes with the
// reference plan.
func TestRecoverRemovedStrategy(t *testing.T) {
	dir := t.TempDir()
	x := testInput(t)
	_, wantJSON, wantText := referencePlan(t, x, testOptions())
	good, err := testOptions().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	removedNames := []string{"xcode-hybrid", "paper-retry"}

	store, err := NewStore(dir, nil, RetryPolicy{}, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	metas := []Meta{{ID: "valid-strategy", State: StateSubmitted, Options: good}}
	for _, name := range removedNames {
		removed := good
		removed.Strategy = name
		metas = append(metas, Meta{ID: "removed-" + name, State: StateRunning, Options: removed})
	}
	for _, meta := range metas {
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
	if got := rec.Snapshot().CounterValue("jobs.recovered"); got != int64(len(metas)) {
		t.Fatalf("jobs.recovered = %d, want %d", got, len(metas))
	}

	for _, meta := range metas[1:] {
		st := waitTerminal(t, m, meta.ID)
		if st.State != StateFailed {
			t.Fatalf("job with removed strategy %q = %s, want failed", meta.Options.Strategy, st.State)
		}
		// The spool keeps the error's text; it must be the text of an error
		// wrapping ErrUnknownStrategy, naming the rejected strategy.
		_, lookupErr := xhybrid.PartitionCtx(context.Background(), x, meta.Options.xhybrid())
		if !errors.Is(lookupErr, xhybrid.ErrUnknownStrategy) {
			t.Fatalf("partitioning under %q: %v, want ErrUnknownStrategy", meta.Options.Strategy, lookupErr)
		}
		if st.Error != lookupErr.Error() || !strings.Contains(st.Error, `"`+meta.Options.Strategy+`"`) {
			t.Fatalf("job error %q, want %q", st.Error, lookupErr)
		}
	}

	if st := waitTerminal(t, m, "valid-strategy"); st.State != StateDone {
		t.Fatalf("recovered valid job = %s (error %q), want done", st.State, st.Error)
	}
	plan, err := m.Result(context.Background(), "valid-strategy")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(planJSON(t, plan), wantJSON) || !bytes.Equal(planText(t, plan, x), wantText) {
		t.Error("recovered valid job's plan differs from the uninterrupted run")
	}
}

// TestRecoverLegacyTenantField: job records once carried the submitting
// tenant's id. A non-terminal job spooled with that field must still be
// recovered and finish with the reference plan.
func TestRecoverLegacyTenantField(t *testing.T) {
	dir := t.TempDir()
	const id = "legacy-tenant"
	x, data := spoolRunningJob(t, dir, id, func(record map[string]any) {
		record["tenant"] = "acme"
	})
	if !bytes.Contains(data, []byte(`"tenant":"acme"`)) {
		t.Fatalf("fixture lacks the legacy field: %s", data)
	}
	recoverAndCheck(t, dir, id, x)
}

// TestRecoverLegacySpool: job records once carried a checkpoint cadence
// ("checkpointEvery") and a checkpointed round count ("rounds"), and a
// job directory could hold checkpoint.json and checkpoint.prev.json. A
// "running" job spooled that way must decode, ignore the leftover files
// (garbage here) and re-run to the plan of a direct run.
func TestRecoverLegacySpool(t *testing.T) {
	dir := t.TempDir()
	const id = "legacy-checkpoints"
	x, data := spoolRunningJob(t, dir, id, func(record map[string]any) {
		record["rounds"] = 5
		record["options"].(map[string]any)["checkpointEvery"] = 1
	})
	for _, field := range []string{`"rounds":5`, `"checkpointEvery":1`} {
		if !bytes.Contains(data, []byte(field)) {
			t.Fatalf("fixture lacks the legacy field %s: %s", field, data)
		}
	}
	for _, f := range []string{"checkpoint.json", "checkpoint.prev.json"} {
		if err := os.WriteFile(filepath.Join(dir, id, f), []byte("not json{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recoverAndCheck(t, dir, id, x)
}
