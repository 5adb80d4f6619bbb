package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"xhybrid"
	"xhybrid/internal/jobs"
)

// flowSpecBody is a small deterministic end-to-end flow spec, JSON-encoded
// the way a client would post it.
func flowSpecBody(t *testing.T) []byte {
	t.Helper()
	body, err := json.Marshal(xhybrid.FlowSpec{
		Cells:       256,
		Chains:      16,
		XClusters:   8,
		CircuitSeed: 5,
		StimSeed:    9,
		Patterns:    96,
		MISRSize:    8,
		Q:           2,
		Strategy:    "greedy",
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestFlowAPILifecycle drives POST /v1/flow → poll → result through the
// HTTP layer and holds the async report's deterministic legs to a direct
// in-process run of the same spec.
func TestFlowAPILifecycle(t *testing.T) {
	s, _ := newJobsServer(t, jobs.Config{})

	var spec xhybrid.FlowSpec
	if err := json.Unmarshal(flowSpecBody(t), &spec); err != nil {
		t.Fatal(err)
	}
	want, err := xhybrid.RunFlow(spec)
	if err != nil {
		t.Fatal(err)
	}

	w := do(t, s, http.MethodPost, "/v1/flow", flowSpecBody(t))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", w.Code, w.Body.String())
	}
	env := decodeJob(t, w)
	if env.ID == "" || env.State != jobs.StateSubmitted {
		t.Fatalf("submit envelope: %+v", env)
	}
	if env.Kind != jobs.KindFlow {
		t.Fatalf("submitted kind %q, want %q", env.Kind, jobs.KindFlow)
	}
	if got := w.Header().Get("Location"); got != "/v1/jobs/"+env.ID {
		t.Errorf("Location = %q", got)
	}

	final := pollDone(t, s, env.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("flow job = %s (error %q), want done", final.State, final.Error)
	}

	res := do(t, s, http.MethodGet, "/v1/jobs/"+env.ID+"/result", nil)
	if res.Code != http.StatusOK {
		t.Fatalf("result status %d: %s", res.Code, res.Body.String())
	}
	var rep xhybrid.FlowReport
	if err := json.Unmarshal(res.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.XMapDigest != want.XMapDigest {
		t.Errorf("served digest %s, want %s", rep.XMapDigest, want.XMapDigest)
	}
	if rep.TotalBits != want.TotalBits || rep.Partitions != want.Partitions {
		t.Errorf("served plan (%d bits, %d partitions), want (%d, %d)",
			rep.TotalBits, rep.Partitions, want.TotalBits, want.Partitions)
	}
	if !rep.Preserved {
		t.Error("served report's preservation verdict is false")
	}

	// Flow reports have no text rendering.
	if text := do(t, s, http.MethodGet, "/v1/jobs/"+env.ID+"/result?format=text", nil); text.Code != http.StatusBadRequest {
		t.Errorf("format=text on a flow result = %d, want 400", text.Code)
	}
}

func TestFlowAPIErrors(t *testing.T) {
	s, _ := newJobsServer(t, jobs.Config{})

	if w := do(t, s, http.MethodPost, "/v1/flow", []byte("not json")); w.Code != http.StatusBadRequest {
		t.Errorf("bad body = %d, want 400", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/v1/flow", []byte(`{"cells":256,"chains":16,"surprise":1}`)); w.Code != http.StatusBadRequest {
		t.Errorf("unknown field = %d, want 400", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/v1/flow", []byte(`{"cells":256,"chains":7,"xclusters":4}`)); w.Code != http.StatusBadRequest {
		t.Errorf("invalid spec = %d, want 400", w.Code)
	}
	// Rejected before the job is spooled: the job goroutine has no
	// recover, so a spec the circuit generator cannot build must not
	// reach it.
	if w := do(t, s, http.MethodPost, "/v1/flow", []byte(`{"cells":64,"chains":8,"m":8,"xclusters":-1}`)); w.Code != http.StatusBadRequest {
		t.Errorf("negative xclusters = %d, want 400", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/v1/flow?workers=frogs", flowSpecBody(t)); w.Code != http.StatusBadRequest {
		t.Errorf("bad workers = %d, want 400", w.Code)
	}

	// Without a job manager the route is absent.
	bare := newTestServer(t, Config{})
	if w := do(t, bare, http.MethodPost, "/v1/flow", flowSpecBody(t)); w.Code != http.StatusNotFound {
		t.Errorf("POST /v1/flow without spool = %d, want 404", w.Code)
	}
}
