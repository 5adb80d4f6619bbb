package server

// The async half of the API: /v1/jobs. Where /v1/partition computes under
// the request's lifetime, a job outlives its connection — the X-map and
// options are spooled to disk, and a daemon restart (graceful or kill -9)
// re-runs every unfinished job from its spooled input to the
// byte-identical plan. The handlers here are a thin HTTP skin over
// internal/jobs.
//
//	POST   /v1/jobs             submit (body + query options)  -> 202 + record
//	POST   /v1/flow             submit an end-to-end flow job (JSON FlowSpec body)
//	GET    /v1/jobs             list every spooled job
//	GET    /v1/jobs/{id}        status + live progress
//	GET    /v1/jobs/{id}/result finished plan or flow report (format=json|text)
//	GET    /v1/jobs/{id}/events live progress stream (SSE; events.go)
//	DELETE /v1/jobs/{id}        cancel (idempotent)
//
// A flow job shares the job lifecycle end to end — same spool, same
// restart recovery, same status/result/events/cancel endpoints — only
// submission and the result payload differ by kind.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"xhybrid"
	"xhybrid/internal/jobs"
)

// jobEnvelope is the JSON shape of one job in responses: the durable
// record plus the canonical poll/result URLs.
type jobEnvelope struct {
	jobs.Status
	Links jobLinks `json:"links"`
}

type jobLinks struct {
	Self   string `json:"self"`
	Result string `json:"result"`
	Events string `json:"events"`
}

func envelope(st jobs.Status) jobEnvelope {
	return jobEnvelope{Status: st, Links: jobLinks{
		Self:   "/v1/jobs/" + st.ID,
		Result: "/v1/jobs/" + st.ID + "/result",
		Events: "/v1/jobs/" + st.ID + "/events",
	}}
}

func (s *Server) writeJob(w http.ResponseWriter, status int, st jobs.Status) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(envelope(st))
}

// jobErr maps jobs-package sentinels onto HTTP statuses.
func (s *Server) jobErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		s.errorJSON(w, http.StatusNotFound, err)
	case errors.Is(err, jobs.ErrQueueFull):
		s.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		s.errorJSON(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, jobs.ErrNotDone):
		// The job exists but there is no plan to return (yet, or ever for
		// failed ones): 409 keeps it distinct from 404.
		s.errorJSON(w, http.StatusConflict, err)
	default:
		s.errorJSON(w, http.StatusInternalServerError, err)
	}
}

// handleJobSubmit spools the posted X-map and options and answers 202
// with the job record before any computing happens.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.reqs.Inc()
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	q := r.URL.Query()
	ro, err := parseOptions(q)
	if err != nil {
		s.badReq.Inc()
		s.errorJSON(w, http.StatusBadRequest, err)
		return
	}
	x, err := readXMap(r, s.cfg.MaxBodyBytes)
	if err != nil {
		s.badReq.Inc()
		s.errorJSON(w, bodyErrStatus(err), err)
		return
	}
	opts := jobs.Options{
		MISRSize:  ro.opt.MISRSize,
		Q:         ro.opt.Q,
		Strategy:  ro.opt.Strategy,
		Seed:      ro.opt.Seed,
		MaxRounds: ro.opt.MaxRounds,
		Workers:   s.clampWorkers(ro.workers),
	}
	meta, err := s.cfg.Jobs.Submit(r.Context(), x, opts)
	if err != nil {
		if errors.Is(err, jobs.ErrQueueFull) {
			s.jobErr(w, err)
			return
		}
		s.badReq.Inc()
		s.errorJSON(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+meta.ID)
	s.writeJob(w, http.StatusAccepted, jobs.Status{Meta: meta})
}

// handleFlowSubmit spools a posted FlowSpec as an async flow job and
// answers 202 with the job record. The body is the JSON spec; the workers
// query parameter (clamped to the server ceiling) overrides the spec's
// worker budget.
func (s *Server) handleFlowSubmit(w http.ResponseWriter, r *http.Request) {
	s.reqs.Inc()
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	workers := 0
	if v := r.URL.Query().Get("workers"); v != "" {
		var err error
		if workers, err = strconv.Atoi(v); err != nil || workers < 0 {
			s.badReq.Inc()
			s.errorJSON(w, http.StatusBadRequest, errors.New("server: bad workers="+v))
			return
		}
	}
	var spec xhybrid.FlowSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.badReq.Inc()
		s.errorJSON(w, bodyErrStatus(err), fmt.Errorf("server: flow spec: %w", err))
		return
	}
	if workers > 0 {
		spec.Workers = workers
	}
	spec.Workers = s.clampWorkers(spec.Workers)
	meta, err := s.cfg.Jobs.SubmitFlow(r.Context(), spec)
	if err != nil {
		if errors.Is(err, jobs.ErrQueueFull) {
			s.jobErr(w, err)
			return
		}
		s.badReq.Inc()
		s.errorJSON(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+meta.ID)
	s.writeJob(w, http.StatusAccepted, jobs.Status{Meta: meta})
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.reqs.Inc()
	list, err := s.cfg.Jobs.List(r.Context())
	if err != nil {
		s.jobErr(w, err)
		return
	}
	out := make([]jobEnvelope, 0, len(list))
	for _, st := range list {
		out = append(out, envelope(st))
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{"jobs": out})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.reqs.Inc()
	st, err := s.cfg.Jobs.Get(r.Context(), r.PathValue("id"))
	if err != nil {
		s.jobErr(w, err)
		return
	}
	s.writeJob(w, http.StatusOK, st)
}

// handleJobResult returns the finished result. Partition jobs answer with
// the plan — format=text renders through the same Plan.WriteText as the
// CLI and the synchronous endpoint, against the job's spooled input, so
// the output is byte-identical across all three paths. Flow jobs answer
// with the flow report (JSON only).
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	s.reqs.Inc()
	id := r.PathValue("id")
	ro, err := parseOptions(r.URL.Query())
	if err != nil {
		s.badReq.Inc()
		s.errorJSON(w, http.StatusBadRequest, err)
		return
	}
	meta, err := s.cfg.Jobs.Get(r.Context(), id)
	if err != nil {
		s.jobErr(w, err)
		return
	}
	if meta.Kind == jobs.KindFlow {
		if ro.format == "text" {
			s.badReq.Inc()
			s.errorJSON(w, http.StatusBadRequest, errors.New("server: flow results are JSON only"))
			return
		}
		rep, err := s.cfg.Jobs.FlowResult(r.Context(), id)
		if err != nil {
			s.jobErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
		return
	}
	plan, err := s.cfg.Jobs.Result(r.Context(), id)
	if err != nil {
		s.jobErr(w, err)
		return
	}
	if ro.format == "text" {
		x, err := s.cfg.Jobs.Input(r.Context(), id)
		if err != nil {
			s.jobErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = plan.WriteText(w, x, ro.verbose)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(plan)
}

// handleJobCancel stops the job; canceling an already-terminal job is a
// no-op success (DELETE is idempotent).
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.reqs.Inc()
	id := r.PathValue("id")
	if err := s.cfg.Jobs.Cancel(r.Context(), id); err != nil {
		s.jobErr(w, err)
		return
	}
	st, err := s.cfg.Jobs.Get(r.Context(), id)
	if err != nil {
		s.jobErr(w, err)
		return
	}
	s.writeJob(w, http.StatusOK, st)
}
