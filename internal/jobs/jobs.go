// Package jobs implements crash-durable asynchronous partition and flow
// jobs: a disk spool that persists each job's input, normalized options,
// state and final result, plus a manager that runs jobs on a bounded
// worker pool and — after a crash, SIGKILL or restart — re-runs every
// unfinished job from its spooled input. The engine is deterministic, so
// a re-run plan is byte-identical to an uninterrupted one, and a re-run
// flow report differs only in its stage wall times.
//
// Durability model: every spool mutation is write-to-temp + atomic rename,
// so a crash at any instant leaves each spool file either old or new,
// never torn. Transient spool I/O errors are retried with exponential
// backoff and jitter (RetryPolicy).
//
// This package implements the jobs/spool extension of DESIGN.md §7;
// internal/chaos injects its failure modes.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"xhybrid"
	"xhybrid/internal/obs"
)

// State is a job's lifecycle state.
type State string

const (
	// StateSubmitted: spooled, waiting for a run slot.
	StateSubmitted State = "submitted"
	// StateRunning: computing (or interrupted mid-compute by a crash — a
	// spooled "running" job found at startup is re-run).
	StateRunning State = "running"
	// StateDone: finished; the result is spooled.
	StateDone State = "done"
	// StateFailed: finished unsuccessfully (bad input, cancellation, or an
	// exhausted retry budget); Error holds the cause.
	StateFailed State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Job kinds (Meta.Kind).
const (
	// KindPartition is the classic job: partition a spooled X-map into a
	// plan. The zero value, so every pre-existing spool record decodes to
	// it.
	KindPartition = ""
	// KindFlow runs the full circuit pipeline (generate → ATPG → simulate →
	// extract → partition → replay) from a spooled FlowSpec.
	KindFlow = "flow"
)

// Sentinel errors; match with errors.Is.
var (
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("jobs: not found")
	// ErrQueueFull reports a submission beyond the waiting-job cap.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrNotDone reports a result request for an unfinished job.
	ErrNotDone = errors.New("jobs: not done")
)

// Options is the normalized, serializable subset of xhybrid.Options a job
// runs with. Zero values mean the engine defaults (m=32, q=7, strategy
// paper); Strategy is stored normalized so equal submissions spool
// equally.
type Options struct {
	MISRSize  int    `json:"m,omitempty"`
	Q         int    `json:"q,omitempty"`
	Strategy  string `json:"strategy,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	MaxRounds int    `json:"maxRounds,omitempty"`
	Workers   int    `json:"workers,omitempty"`
}

// Normalized fills defaults and validates the strategy (the one name a bad
// submission should fail fast on instead of failing asynchronously). The
// engine defaults and the strategy canonicalization are the facade's own
// xhybrid.Options.Normalized — one source of truth, so a spooled job's
// options always equal what the facade would have derived.
func (o Options) Normalized() (Options, error) {
	x, err := o.xhybrid().Normalized()
	if err != nil {
		return o, fmt.Errorf("jobs: %w", err)
	}
	o.MISRSize, o.Q, o.Strategy = x.MISRSize, x.Q, x.Strategy
	return o, nil
}

func (o Options) xhybrid() xhybrid.Options {
	return xhybrid.Options{
		MISRSize:  o.MISRSize,
		Q:         o.Q,
		Strategy:  o.Strategy,
		Seed:      o.Seed,
		MaxRounds: o.MaxRounds,
		Workers:   o.Workers,
	}
}

// Progress is a running job's live progress, sampled from its per-job
// recorder. A recovered job re-runs from its input, so its counters start
// again from zero.
type Progress struct {
	// Stage names the pipeline stage a flow job is currently in (generate,
	// atpg, simulate, extract, partition, replay, faultsim); empty for
	// partition jobs and idle flow jobs.
	Stage string `json:"stage,omitempty"`
	// LiveRounds / LiveAccepted count rounds attempted/accepted since this
	// process started the job (from the obs counters).
	LiveRounds   int64 `json:"liveRounds"`
	LiveAccepted int64 `json:"liveAccepted"`
}

// Status is one job's metadata plus live progress.
type Status struct {
	Meta
	Progress Progress `json:"progress"`
}

// Config parameterizes a Manager. The zero value works: spool retries use
// the default policy and concurrency defaults to 1.
type Config struct {
	// MaxConcurrent caps jobs computing at once (default 1).
	MaxConcurrent int
	// MaxQueue caps jobs waiting for a slot (default 64); Submit beyond it
	// returns ErrQueueFull. Recovered jobs bypass the cap — they are
	// already durable.
	MaxQueue int
	// Retry is the spool I/O retry policy.
	Retry RetryPolicy
	// FS overrides the spool filesystem (nil = the real one); the chaos
	// harness injects faults here.
	FS FS
	// Obs receives the manager's counters and each job's pipeline stats;
	// nil creates a fresh recorder.
	Obs *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 1
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.Obs == nil {
		c.Obs = obs.New()
	}
	return c
}

// jobHandle is the in-process state of an enqueued or running job.
type jobHandle struct {
	cancel       context.CancelFunc
	rec          *obs.Recorder
	userCanceled atomic.Bool
	stage        atomic.Value // string: current flow stage name
}

func (h *jobHandle) setStage(name string) { h.stage.Store(name) }

func (h *jobHandle) currentStage() string {
	s, _ := h.stage.Load().(string)
	return s
}

// Manager runs spooled jobs on a bounded pool. Open recovers unfinished
// jobs from the spool; Stop interrupts running jobs recoverably (their
// spooled state stays "running" and the next Open re-runs them).
type Manager struct {
	cfg   Config
	store *Store
	rec   *obs.Recorder

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	sem        chan struct{}
	waiting    atomic.Int64

	mu     sync.Mutex
	active map[string]*jobHandle

	submitted   *obs.Counter
	completed   *obs.Counter
	failed      *obs.Counter
	canceled    *obs.Counter
	recovered   *obs.Counter
	interrupted *obs.Counter
}

// Open creates a manager over the spool at dir and re-enqueues every
// unfinished job it finds there (counted in jobs.recovered).
func Open(dir string, cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	store, err := NewStore(dir, cfg.FS, cfg.Retry, cfg.Obs)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		store:      store,
		rec:        cfg.Obs,
		baseCtx:    ctx,
		baseCancel: cancel,
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		active:     make(map[string]*jobHandle),

		submitted:   cfg.Obs.Counter("jobs.submitted"),
		completed:   cfg.Obs.Counter("jobs.completed"),
		failed:      cfg.Obs.Counter("jobs.failed"),
		canceled:    cfg.Obs.Counter("jobs.canceled"),
		recovered:   cfg.Obs.Counter("jobs.recovered"),
		interrupted: cfg.Obs.Counter("jobs.interrupted"),
	}
	metas, err := store.List(ctx)
	if err != nil {
		cancel()
		return nil, err
	}
	for _, meta := range metas {
		if meta.State.Terminal() {
			continue
		}
		meta.Resumes++
		m.recovered.Inc()
		m.enqueue(meta, true)
	}
	return m, nil
}

// Store exposes the spool (read paths are used by the serving layer).
func (m *Manager) Store() *Store { return m.store }

// Submit spools a new job and enqueues it, returning its metadata.
func (m *Manager) Submit(ctx context.Context, x *xhybrid.XLocations, opts Options) (Meta, error) {
	norm, err := opts.Normalized()
	if err != nil {
		return Meta{}, err
	}
	meta := Meta{
		ID:      newID(),
		State:   StateSubmitted,
		Options: norm,
		Created: time.Now().UTC(),
	}
	if err := m.store.CreateJob(ctx, meta, x); err != nil {
		return Meta{}, err
	}
	if !m.enqueue(meta, false) {
		// Leave the spooled record behind, marked failed, so the client
		// can still GET an explanation.
		meta.State = StateFailed
		meta.Error = ErrQueueFull.Error()
		meta.Finished = time.Now().UTC()
		_ = m.store.WriteMeta(context.Background(), meta)
		return Meta{}, ErrQueueFull
	}
	m.submitted.Inc()
	return meta, nil
}

// SubmitFlow spools a new end-to-end flow job (KindFlow) and enqueues it.
// The spec is normalized and validated before anything touches disk, so a
// bad spec fails synchronously (the serving layer clamps spec.Workers
// before calling here).
func (m *Manager) SubmitFlow(ctx context.Context, spec xhybrid.FlowSpec) (Meta, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return Meta{}, err
	}
	meta := Meta{
		ID:      newID(),
		Kind:    KindFlow,
		State:   StateSubmitted,
		Options: Options{Workers: spec.Workers},
		Created: time.Now().UTC(),
	}
	if err := m.store.CreateFlowJob(ctx, meta, &spec); err != nil {
		return Meta{}, err
	}
	if !m.enqueue(meta, false) {
		meta.State = StateFailed
		meta.Error = ErrQueueFull.Error()
		meta.Finished = time.Now().UTC()
		_ = m.store.WriteMeta(context.Background(), meta)
		return Meta{}, ErrQueueFull
	}
	m.submitted.Inc()
	return meta, nil
}

// enqueue registers the job and starts its goroutine. force bypasses the
// waiting cap (recovery).
func (m *Manager) enqueue(meta Meta, force bool) bool {
	if m.waiting.Add(1) > int64(m.cfg.MaxQueue) && !force {
		m.waiting.Add(-1)
		return false
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	h := &jobHandle{cancel: cancel, rec: obs.New()}
	m.mu.Lock()
	m.active[meta.ID] = h
	m.mu.Unlock()
	m.wg.Add(1)
	go m.run(ctx, meta, h)
	return true
}

// run drives one job from slot acquisition to a terminal (or recoverable)
// state.
func (m *Manager) run(ctx context.Context, meta Meta, h *jobHandle) {
	defer m.wg.Done()
	defer h.cancel()
	select {
	case m.sem <- struct{}{}:
	case <-ctx.Done():
		m.waiting.Add(-1)
		m.finishInterrupted(meta, h)
		return
	}
	m.waiting.Add(-1)
	defer func() { <-m.sem }()

	meta.State = StateRunning
	if meta.Started.IsZero() {
		meta.Started = time.Now().UTC()
	}
	if err := m.store.WriteMeta(ctx, meta); err != nil {
		m.finish(meta, h, nil, err)
		return
	}
	if meta.Kind == KindFlow {
		m.runFlow(ctx, meta, h)
		return
	}
	x, err := m.store.ReadInput(ctx, meta.ID)
	if err != nil {
		m.finish(meta, h, nil, err)
		return
	}
	opt := meta.Options.xhybrid()
	opt.Stats = h.rec
	plan, err := xhybrid.PartitionCtx(ctx, x, opt)
	m.finish(meta, h, func() error {
		return m.store.WriteResult(context.Background(), meta.ID, plan)
	}, err)
}

// runFlow drives a KindFlow job: the spooled spec is run front to back.
func (m *Manager) runFlow(ctx context.Context, meta Meta, h *jobHandle) {
	spec, err := m.store.ReadFlowSpec(ctx, meta.ID)
	if err != nil {
		m.finish(meta, h, nil, err)
		return
	}
	rep, err := xhybrid.RunFlowCtx(ctx, *spec, xhybrid.FlowRunConfig{
		Obs:     h.rec,
		OnStage: h.setStage,
	})
	m.finish(meta, h, func() error {
		return m.store.WriteFlowResult(context.Background(), meta.ID, rep)
	}, err)
}

// finish writes the job's terminal state — or, when the whole manager is
// shutting down, leaves the spooled "running" record alone so the next
// Open re-runs the job. persist spools the kind-specific result (only
// called when the job succeeded). Terminal writes use a background
// context: the job's own context is typically already dead here.
func (m *Manager) finish(meta Meta, h *jobHandle, persist func() error, err error) {
	defer m.release(meta.ID)
	switch {
	case err == nil:
		if werr := persist(); werr != nil {
			err = werr
			break
		}
		meta.State = StateDone
		meta.Finished = time.Now().UTC()
		// Count before the meta write: a watcher that polls the state to
		// "done" must already see the counter.
		m.completed.Inc()
		_ = m.store.WriteMeta(context.Background(), meta)
		return
	case m.baseCtx.Err() != nil && !h.userCanceled.Load():
		m.finishInterrupted(meta, h)
		return
	}
	meta.State = StateFailed
	meta.Finished = time.Now().UTC()
	if h.userCanceled.Load() {
		meta.Error = "job canceled"
		m.canceled.Inc()
	} else {
		meta.Error = err.Error()
		m.failed.Inc()
	}
	_ = m.store.WriteMeta(context.Background(), meta)
}

// finishInterrupted handles manager shutdown: the spooled state stays
// submitted/running so the next Open re-runs the job from its input.
func (m *Manager) finishInterrupted(meta Meta, h *jobHandle) {
	if h.userCanceled.Load() {
		meta.State = StateFailed
		meta.Error = "job canceled"
		meta.Finished = time.Now().UTC()
		_ = m.store.WriteMeta(context.Background(), meta)
		m.canceled.Inc()
	} else {
		m.interrupted.Inc()
	}
	m.release(meta.ID)
}

func (m *Manager) release(id string) {
	m.mu.Lock()
	delete(m.active, id)
	m.mu.Unlock()
}

func (m *Manager) handle(id string) *jobHandle {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active[id]
}

// Get returns the job's status: spooled metadata overlaid with live
// progress when the job is running in this process.
func (m *Manager) Get(ctx context.Context, id string) (Status, error) {
	meta, err := m.store.ReadMeta(ctx, id)
	if err != nil {
		return Status{}, err
	}
	st := Status{Meta: meta}
	if h := m.handle(id); h != nil {
		snap := h.rec.Snapshot()
		st.Progress.Stage = h.currentStage()
		st.Progress.LiveRounds = snap.CounterValue("core.rounds")
		st.Progress.LiveAccepted = snap.CounterValue("core.rounds.accepted")
	}
	return st, nil
}

// List returns every spooled job's status.
func (m *Manager) List(ctx context.Context) ([]Status, error) {
	metas, err := m.store.List(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]Status, 0, len(metas))
	for _, meta := range metas {
		st, err := m.Get(ctx, meta.ID)
		if err != nil {
			continue
		}
		out = append(out, st)
	}
	return out, nil
}

// Result returns a partition job's finished plan, or ErrNotDone with the
// job's current state while it is still in flight (and the failure cause
// for failed jobs). Flow jobs answer through FlowResult.
func (m *Manager) Result(ctx context.Context, id string) (*xhybrid.Plan, error) {
	if _, err := m.resultMeta(ctx, id, KindPartition); err != nil {
		return nil, err
	}
	return m.store.ReadResult(ctx, id)
}

// FlowResult returns a flow job's finished report (the KindFlow analogue
// of Result).
func (m *Manager) FlowResult(ctx context.Context, id string) (*xhybrid.FlowReport, error) {
	if _, err := m.resultMeta(ctx, id, KindFlow); err != nil {
		return nil, err
	}
	return m.store.ReadFlowResult(ctx, id)
}

// resultMeta loads the job record and checks it is done and of the wanted
// kind.
func (m *Manager) resultMeta(ctx context.Context, id, kind string) (Meta, error) {
	meta, err := m.store.ReadMeta(ctx, id)
	if err != nil {
		return meta, err
	}
	if meta.Kind != kind {
		return meta, fmt.Errorf("%w: job kind %q", ErrNotDone, meta.Kind)
	}
	switch meta.State {
	case StateDone:
		return meta, nil
	case StateFailed:
		return meta, fmt.Errorf("%w: job failed: %s", ErrNotDone, meta.Error)
	default:
		return meta, fmt.Errorf("%w: job is %s", ErrNotDone, meta.State)
	}
}

// Input returns the job's spooled X-map (the serving layer renders text
// results against it).
func (m *Manager) Input(ctx context.Context, id string) (*xhybrid.XLocations, error) {
	if _, err := m.store.ReadMeta(ctx, id); err != nil {
		return nil, err
	}
	return m.store.ReadInput(ctx, id)
}

// Cancel stops the job. A queued or running job is canceled in-process; a
// job already in a terminal state is left alone (not an error — DELETE is
// idempotent).
func (m *Manager) Cancel(ctx context.Context, id string) error {
	if h := m.handle(id); h != nil {
		h.userCanceled.Store(true)
		h.cancel()
		return nil
	}
	meta, err := m.store.ReadMeta(ctx, id)
	if err != nil {
		return err
	}
	if meta.State.Terminal() {
		return nil
	}
	// Spooled but not active in this process (e.g. the manager is
	// stopping): mark it failed so it is not re-run at the next Open.
	meta.State = StateFailed
	meta.Error = "job canceled"
	meta.Finished = time.Now().UTC()
	m.canceled.Inc()
	return m.store.WriteMeta(ctx, meta)
}

// Depth reports the running and waiting job counts (scrape-time gauges).
func (m *Manager) Depth() (running, waiting int64) {
	return int64(len(m.sem)), m.waiting.Load()
}

// Stop interrupts every queued and running job recoverably (spooled state
// stays non-terminal; the next Open re-runs it) and waits for the
// goroutines to exit. The manager must not be used afterwards.
func (m *Manager) Stop() {
	m.baseCancel()
	m.wg.Wait()
}

// idSeq feeds the fallback id path so two ids minted in the same
// nanosecond still differ.
var idSeq atomic.Uint64

// newID returns a 16-hex-digit random job id. The fallback (crypto/rand
// failing means a badly broken platform, but ids must still work) mixes the
// clock with the pid and a process-local counter and formats to the same
// fixed 16-hex-char width as the random path — an earlier version emitted
// 17 chars ("t" + %015x) and collided for same-nanosecond submissions
// (TestNewIDWidthAndUniqueness).
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fallbackID()
	}
	return hex.EncodeToString(b[:])
}

// fallbackID mints ids without entropy: low clock bits, a pid byte, a
// 16-bit counter. Split out of newID so the width and same-nanosecond
// uniqueness invariants are testable without breaking crypto/rand.
func fallbackID() string {
	v := uint64(time.Now().UnixNano())<<24 |
		uint64(os.Getpid()&0xff)<<16 |
		(idSeq.Add(1) & 0xffff)
	return fmt.Sprintf("%016x", v)
}
