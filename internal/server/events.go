package server

// Server-Sent Events streaming of job progress: GET /v1/jobs/{id}/events
// holds the connection open and emits one event per observed change until
// the job reaches a terminal state or the client hangs up. Transport is
// plain SSE (text/event-stream) so `curl -N` and EventSource both work
// against it with no client library.
//
// Event vocabulary:
//
//	event: status    the job's state changed (submitted -> running -> ...)
//	event: progress  round/checkpoint counters moved while running
//	event: done      terminal snapshot; the stream closes after this
//
// Every data payload is one compact-JSON job envelope — the same shape as
// GET /v1/jobs/{id} — so a consumer can treat any event as a full refresh.
// The stream is driven by polling the job manager at
// Config.ProgressInterval; the spool is the source of truth, so a stream
// works (and terminates correctly) even for jobs another process finished.

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"xhybrid/internal/jobs"
)

// progressKey is the change-detection fingerprint of a job snapshot: a new
// event is emitted only when one of these moved. stage makes every flow
// pipeline stage transition (generate → atpg → simulate → …) its own
// progress event even when no partitioning round has run yet.
type progressKey struct {
	state       jobs.State
	stage       string
	rounds      int64
	liveRounds  int64
	checkpoints int64
}

func keyOf(st jobs.Status) progressKey {
	return progressKey{
		state:       st.State,
		stage:       st.Progress.Stage,
		rounds:      st.Progress.Rounds,
		liveRounds:  st.Progress.LiveRounds,
		checkpoints: st.Progress.Checkpoints,
	}
}

// writeEvent emits one SSE frame. The payload marshals compact — SSE
// frames are newline-delimited, so the pretty encoder the JSON endpoints
// use would tear the data field across lines.
func writeEvent(w http.ResponseWriter, flusher http.Flusher, name string, st jobs.Status) error {
	data, err := json.Marshal(envelope(st))
	if err != nil {
		return err
	}
	if _, err := w.Write([]byte("event: " + name + "\ndata: ")); err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	if _, err := w.Write([]byte("\n\n")); err != nil {
		return err
	}
	flusher.Flush()
	return nil
}

// handleJobEvents streams a job's progress as SSE until it finishes.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.reqs.Inc()
	id := r.PathValue("id")
	st, err := s.cfg.Jobs.Get(r.Context(), id)
	if err != nil {
		s.jobErr(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.errorJSON(w, http.StatusNotImplemented, errSSEUnsupported)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)

	// Opening snapshot: a status event (or the terminal event straight
	// away — subscribing to a finished job yields exactly one `done`).
	if st.State.Terminal() {
		_ = writeEvent(w, flusher, "done", st)
		return
	}
	if err := writeEvent(w, flusher, "status", st); err != nil {
		return
	}
	last := keyOf(st)

	ticker := time.NewTicker(s.cfg.ProgressInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
		st, err := s.cfg.Jobs.Get(r.Context(), id)
		if err != nil {
			// The job record vanished mid-stream (spool wiped?); nothing
			// more to say.
			return
		}
		if st.State.Terminal() {
			_ = writeEvent(w, flusher, "done", st)
			return
		}
		key := keyOf(st)
		if key == last {
			continue
		}
		name := "progress"
		if key.state != last.state {
			name = "status"
		}
		if err := writeEvent(w, flusher, name, st); err != nil {
			return
		}
		last = key
	}
}

var errSSEUnsupported = errors.New("server: response writer cannot stream")
