package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"xhybrid/internal/chaos"
	"xhybrid/internal/jobs"
)

// sseEvent is one parsed frame of a text/event-stream body.
type sseEvent struct {
	name string
	data jobEnvelope
}

// parseSSE decodes every complete frame of a recorded stream.
func parseSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var events []sseEvent
	var name string
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var env jobEnvelope
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &env); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
			events = append(events, sseEvent{name: name, data: env})
		}
	}
	return events
}

// TestJobEventsStream subscribes to a running job and checks the stream
// contract: an opening status event, then a terminal done event carrying
// the finished record, after which the handler closes the stream.
func TestJobEventsStream(t *testing.T) {
	// The input read is slowed so the job is reliably still in flight when
	// the subscription opens; a tight poll interval keeps the test quick.
	mgr, err := jobs.Open(t.TempDir(), jobs.Config{
		FS: chaos.Wrap(nil, &chaos.Fault{Op: chaos.OpRead, Base: "input.json", Delay: 200 * time.Millisecond}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Stop)
	s := newTestServer(t, Config{Jobs: mgr, ProgressInterval: 5 * time.Millisecond})

	w := do(t, s, http.MethodPost, "/v1/jobs?m=10&q=2", fixtureBody(t))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body.String())
	}
	id := decodeJob(t, w).ID

	// ServeHTTP blocks until the stream ends (the job finishing), so the
	// recorder holds the complete event log afterwards.
	stream := do(t, s, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if stream.Code != http.StatusOK {
		t.Fatalf("events status %d: %s", stream.Code, stream.Body.String())
	}
	if ct := stream.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	if !stream.Flushed {
		t.Fatal("stream was never flushed; SSE must not buffer until the end")
	}
	events := parseSSE(t, stream.Body.String())
	if len(events) < 2 {
		t.Fatalf("got %d events, want at least status + done:\n%s", len(events), stream.Body.String())
	}
	if events[0].name != "status" {
		t.Fatalf("first event = %q, want status", events[0].name)
	}
	last := events[len(events)-1]
	if last.name != "done" {
		t.Fatalf("last event = %q, want done", last.name)
	}
	if last.data.State != jobs.StateDone || last.data.ID != id {
		t.Fatalf("done payload = %+v", last.data.Meta)
	}
	for _, ev := range events[:len(events)-1] {
		if ev.data.State.Terminal() {
			t.Fatalf("terminal state %q before the done event", ev.data.State)
		}
	}
}

// TestJobEventsTerminalAndMissing: subscribing to a finished job yields
// exactly one done frame and closes; an unknown id is a plain 404.
func TestJobEventsTerminalAndMissing(t *testing.T) {
	s, _ := newJobsServer(t, jobs.Config{})
	w := do(t, s, http.MethodPost, "/v1/jobs?m=10&q=2", fixtureBody(t))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", w.Code)
	}
	env := pollDone(t, s, decodeJob(t, w).ID)

	stream := do(t, s, http.MethodGet, "/v1/jobs/"+env.ID+"/events", nil)
	if stream.Code != http.StatusOK {
		t.Fatalf("events status %d", stream.Code)
	}
	events := parseSSE(t, stream.Body.String())
	if len(events) != 1 || events[0].name != "done" {
		t.Fatalf("finished job stream = %+v, want exactly one done event", events)
	}

	if w := do(t, s, http.MethodGet, "/v1/jobs/nope/events", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", w.Code)
	}
}
