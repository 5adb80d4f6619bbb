package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"xhybrid"
	"xhybrid/internal/chaos"
	"xhybrid/internal/jobs"
)

// newJobsServer spins a server with the async API over a temp spool.
func newJobsServer(t *testing.T, jcfg jobs.Config) (*Server, *jobs.Manager) {
	t.Helper()
	mgr, err := jobs.Open(t.TempDir(), jcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Stop)
	return newTestServer(t, Config{Jobs: mgr}), mgr
}

func do(t *testing.T, s *Server, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var r *bytes.Reader
	if body == nil {
		r = bytes.NewReader(nil)
	} else {
		r = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, r)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func decodeJob(t *testing.T, w *httptest.ResponseRecorder) jobEnvelope {
	t.Helper()
	var env jobEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("decode job envelope: %v (body %s)", err, w.Body.String())
	}
	return env
}

// pollDone polls GET /v1/jobs/{id} until the job is terminal.
func pollDone(t *testing.T, s *Server, id string) jobEnvelope {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		w := do(t, s, http.MethodGet, "/v1/jobs/"+id, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("poll status %d: %s", w.Code, w.Body.String())
		}
		env := decodeJob(t, w)
		if env.State.Terminal() {
			return env
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, env.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobsAPILifecycle drives submit → poll → result through the HTTP
// layer and holds the async results to the synchronous endpoint's bytes.
func TestJobsAPILifecycle(t *testing.T) {
	s, _ := newJobsServer(t, jobs.Config{})
	body := fixtureBody(t)

	// Synchronous reference: same options through /v1/partition.
	syncJSON := post(t, s, "/v1/partition?m=10&q=2", body, nil)
	if syncJSON.Code != http.StatusOK {
		t.Fatalf("sync status %d: %s", syncJSON.Code, syncJSON.Body.String())
	}
	var sync partitionResponse
	if err := json.Unmarshal(syncJSON.Body.Bytes(), &sync); err != nil {
		t.Fatal(err)
	}
	wantPlan, _ := json.Marshal(sync.Plan)
	syncText := post(t, s, "/v1/partition?m=10&q=2&format=text", body, nil)
	if syncText.Code != http.StatusOK {
		t.Fatalf("sync text status %d", syncText.Code)
	}

	w := do(t, s, http.MethodPost, "/v1/jobs?m=10&q=2", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", w.Code, w.Body.String())
	}
	env := decodeJob(t, w)
	if env.ID == "" || env.State != jobs.StateSubmitted {
		t.Fatalf("submit envelope: %+v", env)
	}
	if got := w.Header().Get("Location"); got != "/v1/jobs/"+env.ID {
		t.Errorf("Location = %q", got)
	}
	if env.Links.Result != "/v1/jobs/"+env.ID+"/result" {
		t.Errorf("links = %+v", env.Links)
	}

	final := pollDone(t, s, env.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("job = %s (error %q), want done", final.State, final.Error)
	}

	res := do(t, s, http.MethodGet, "/v1/jobs/"+env.ID+"/result", nil)
	if res.Code != http.StatusOK {
		t.Fatalf("result status %d: %s", res.Code, res.Body.String())
	}
	var gotPlan xhybrid.Plan
	if err := json.Unmarshal(res.Body.Bytes(), &gotPlan); err != nil {
		t.Fatal(err)
	}
	gotBytes, _ := json.Marshal(&gotPlan)
	if !bytes.Equal(gotBytes, wantPlan) {
		t.Errorf("async plan differs from synchronous plan")
	}

	text := do(t, s, http.MethodGet, "/v1/jobs/"+env.ID+"/result?format=text", nil)
	if text.Code != http.StatusOK {
		t.Fatalf("text result status %d", text.Code)
	}
	if text.Body.String() != syncText.Body.String() {
		t.Errorf("async text result differs from synchronous format=text body")
	}

	list := do(t, s, http.MethodGet, "/v1/jobs", nil)
	if list.Code != http.StatusOK {
		t.Fatalf("list status %d", list.Code)
	}
	var listing struct {
		Jobs []jobEnvelope `json:"jobs"`
	}
	if err := json.Unmarshal(list.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 1 || listing.Jobs[0].ID != env.ID {
		t.Errorf("listing = %+v, want the one job", listing.Jobs)
	}
}

func TestJobsAPIErrors(t *testing.T) {
	s, _ := newJobsServer(t, jobs.Config{})
	body := fixtureBody(t)

	if w := do(t, s, http.MethodGet, "/v1/jobs/nope", nil); w.Code != http.StatusNotFound {
		t.Errorf("GET unknown = %d, want 404", w.Code)
	}
	if w := do(t, s, http.MethodGet, "/v1/jobs/nope/result", nil); w.Code != http.StatusNotFound {
		t.Errorf("GET unknown result = %d, want 404", w.Code)
	}
	if w := do(t, s, http.MethodDelete, "/v1/jobs/nope", nil); w.Code != http.StatusNotFound {
		t.Errorf("DELETE unknown = %d, want 404", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/v1/jobs?strategy=divine", body); w.Code != http.StatusBadRequest {
		t.Errorf("bad strategy = %d, want 400", w.Code)
	}
	if w := do(t, s, http.MethodPost, "/v1/jobs", []byte("not json")); w.Code != http.StatusBadRequest {
		t.Errorf("bad body = %d, want 400", w.Code)
	}

	// Result of an in-flight (here: just-submitted but unfinished) job is
	// 409, distinct from 404. A slow input read keeps it in flight.
	slow, mgr := newJobsServer(t, jobs.Config{
		FS: chaos.Wrap(nil, &chaos.Fault{Op: chaos.OpRead, Base: "input.json", Delay: 300 * time.Millisecond}),
	})
	w := do(t, slow, http.MethodPost, "/v1/jobs?m=10&q=2", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit status %d", w.Code)
	}
	env := decodeJob(t, w)
	if res := do(t, slow, http.MethodGet, "/v1/jobs/"+env.ID+"/result", nil); res.Code != http.StatusConflict {
		t.Errorf("result of in-flight job = %d, want 409", res.Code)
	}
	_ = mgr
}

func TestJobsAPICancel(t *testing.T) {
	s, _ := newJobsServer(t, jobs.Config{
		FS: chaos.Wrap(nil, &chaos.Fault{Op: chaos.OpRead, Base: "input.json", Delay: 300 * time.Millisecond}),
	})
	w := do(t, s, http.MethodPost, "/v1/jobs?m=10&q=2", fixtureBody(t))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit status %d", w.Code)
	}
	env := decodeJob(t, w)

	del := do(t, s, http.MethodDelete, "/v1/jobs/"+env.ID, nil)
	if del.Code != http.StatusOK {
		t.Fatalf("cancel status %d: %s", del.Code, del.Body.String())
	}
	final := pollDone(t, s, env.ID)
	if final.State != jobs.StateFailed || final.Error != "job canceled" {
		t.Fatalf("canceled job = %s (error %q)", final.State, final.Error)
	}
	// Idempotent DELETE on the now-terminal job.
	if again := do(t, s, http.MethodDelete, "/v1/jobs/"+env.ID, nil); again.Code != http.StatusOK {
		t.Errorf("second cancel = %d, want 200", again.Code)
	}
}

func TestJobsAPIQueueFull(t *testing.T) {
	s, mgr := newJobsServer(t, jobs.Config{
		MaxConcurrent: 1,
		MaxQueue:      1,
		FS:            chaos.Wrap(nil, &chaos.Fault{Op: chaos.OpRead, Base: "input.json", Delay: 500 * time.Millisecond}),
	})
	body := fixtureBody(t)
	if w := do(t, s, http.MethodPost, "/v1/jobs?m=10&q=2", body); w.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d", w.Code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if running, _ := mgr.Depth(); running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never took the run slot")
		}
		time.Sleep(time.Millisecond)
	}
	if w := do(t, s, http.MethodPost, "/v1/jobs?m=10&q=2&seed=1", body); w.Code != http.StatusAccepted {
		t.Fatalf("second submit = %d", w.Code)
	}
	third := do(t, s, http.MethodPost, "/v1/jobs?m=10&q=2&seed=2", body)
	if third.Code != http.StatusServiceUnavailable {
		t.Fatalf("third submit = %d, want 503", third.Code)
	}
	if got := third.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want 1", got)
	}
}

// TestJobsAPIDisabled: without a manager the routes are simply absent.
func TestJobsAPIDisabled(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := do(t, s, http.MethodPost, "/v1/jobs", fixtureBody(t)); w.Code != http.StatusNotFound {
		t.Errorf("POST /v1/jobs without spool = %d, want 404", w.Code)
	}
	if w := do(t, s, http.MethodGet, "/v1/jobs", nil); w.Code != http.StatusNotFound {
		t.Errorf("GET /v1/jobs without spool = %d, want 404", w.Code)
	}
}

// TestJobsAPIRestartResumes is the serving-layer restart drill: a server
// dies (manager stopped mid-run), a second server over the same spool
// comes up, and the client's poll loop completes against the new process
// with the byte-identical plan.
func TestJobsAPIRestartResumes(t *testing.T) {
	dir := t.TempDir()

	// Reference plan, computed synchronously.
	x := xhybrid.PaperExample()
	plan, err := xhybrid.Partition(x, xhybrid.Options{MISRSize: 10, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantPlan, _ := json.Marshal(plan)

	// First daemon: accepts the job but its input read is glacial, so it
	// is still running when the daemon stops.
	mgrA, err := jobs.Open(dir, jobs.Config{
		FS: chaos.Wrap(nil, &chaos.Fault{Op: chaos.OpRead, Base: "input.json", Delay: 400 * time.Millisecond}),
	})
	if err != nil {
		t.Fatal(err)
	}
	sA := newTestServer(t, Config{Jobs: mgrA})
	w := do(t, sA, http.MethodPost, "/v1/jobs?m=10&q=2", fixtureBody(t))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit status %d", w.Code)
	}
	env := decodeJob(t, w)
	mgrA.Stop()

	// Second daemon over the same spool: recovery finishes the job.
	mgrB, err := jobs.Open(dir, jobs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgrB.Stop)
	sB := newTestServer(t, Config{Jobs: mgrB})
	final := pollDone(t, sB, env.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("recovered job = %s (error %q), want done", final.State, final.Error)
	}
	if final.Resumes != 1 {
		t.Errorf("resumes = %d, want 1", final.Resumes)
	}
	res := do(t, sB, http.MethodGet, "/v1/jobs/"+env.ID+"/result", nil)
	if res.Code != http.StatusOK {
		t.Fatalf("result status %d", res.Code)
	}
	var gotPlan xhybrid.Plan
	if err := json.Unmarshal(res.Body.Bytes(), &gotPlan); err != nil {
		t.Fatal(err)
	}
	gotBytes, _ := json.Marshal(&gotPlan)
	if !bytes.Equal(gotBytes, wantPlan) {
		t.Errorf("plan served after restart differs from reference")
	}
}
