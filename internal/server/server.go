package server

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"time"

	"xhybrid"
	"xhybrid/internal/jobs"
	"xhybrid/internal/obs"
)

// Config parameterizes the serving layer. The zero value serves with the
// documented defaults.
type Config struct {
	// CacheBytes is the in-memory result-cache budget in bytes, weighted
	// by each plan's approximate resident size (default 256 MiB; negative
	// disables caching).
	CacheBytes int64
	// MaxConcurrent caps the partition jobs computing at once (default
	// runtime.GOMAXPROCS(0)).
	MaxConcurrent int
	// MaxQueue caps the requests waiting for a job slot (default 64;
	// negative means none may wait); they are granted slots in arrival
	// order, and beyond the cap requests are rejected with 503.
	MaxQueue int
	// MaxWorkersPerJob clamps the per-request worker budget (default
	// runtime.GOMAXPROCS(0)). A request's workers parameter can lower but
	// never exceed it.
	MaxWorkersPerJob int
	// MaxBodyBytes bounds the request body (default 64 MiB).
	MaxBodyBytes int64
	// JobTimeout bounds one partition job's compute time (0 = unbounded);
	// on expiry the pipeline aborts mid-round and the request gets 503.
	JobTimeout time.Duration
	// DrainTimeout bounds graceful shutdown's wait for in-flight jobs
	// (default 30s).
	DrainTimeout time.Duration
	// ProgressInterval is the poll cadence of the SSE job-progress stream
	// (default 250ms).
	ProgressInterval time.Duration
	// Jobs enables the async /v1/jobs API: submissions are spooled to disk
	// by this manager, survive restarts, and resume from their last
	// checkpoint. nil leaves the endpoints unregistered (synchronous
	// /v1/partition is unaffected either way).
	Jobs *jobs.Manager
	// Obs receives every counter and span of the server and the pipeline
	// runs it hosts; nil creates a fresh recorder (the /metrics endpoint
	// needs one to scrape).
	Obs *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxWorkersPerJob <= 0 {
		c.MaxWorkersPerJob = runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.ProgressInterval <= 0 {
		c.ProgressInterval = 250 * time.Millisecond
	}
	if c.Obs == nil {
		c.Obs = obs.New()
	}
	return c
}

// Server hosts the partition pipeline behind HTTP. Create with New; the
// zero value is not usable.
type Server struct {
	cfg   Config
	rec   *obs.Recorder
	cache *resultCache
	queue *slotQueue
	mux   *http.ServeMux

	reqs         *obs.Counter
	completed    *obs.Counter
	rejected     *obs.Counter
	disconnected *obs.Counter
	timedout     *obs.Counter
	badReq       *obs.Counter
}

// New returns a server with the config's defaults applied. The error is
// always nil.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		rec:   cfg.Obs,
		cache: newResultCache(cfg.CacheBytes, cfg.Obs),
		queue: newSlotQueue(cfg.MaxConcurrent, cfg.MaxQueue),

		reqs:         cfg.Obs.Counter("server.requests"),
		completed:    cfg.Obs.Counter("server.jobs.completed"),
		rejected:     cfg.Obs.Counter("server.jobs.rejected"),
		disconnected: cfg.Obs.Counter("server.jobs.disconnected"),
		timedout:     cfg.Obs.Counter("server.jobs.timedout"),
		badReq:       cfg.Obs.Counter("server.requests.bad"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/partition", s.handlePartition)
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	if cfg.Jobs != nil {
		mux.HandleFunc("POST /v1/flow", s.handleFlowSubmit)
		mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
		mux.HandleFunc("GET /v1/jobs", s.handleJobList)
		mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
		mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
		mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
		mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	}
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler (also usable under httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until ctx is canceled, then shuts down
// gracefully: the listener closes immediately while in-flight requests —
// including partition jobs mid-compute — drain for up to
// Config.DrainTimeout before the remaining connections are force-closed.
// Jobs keep their own request contexts during the drain, so draining never
// cancels compute that a live client is still waiting on.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		srv.Close()
		return fmt.Errorf("server: drain: %w", err)
	}
	return nil
}

// ListenAndServe is Serve on a fresh TCP listener.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// requestOptions is the decoded query-string configuration of one request.
type requestOptions struct {
	opt     xhybrid.Options
	verbose bool
	format  string // "json" or "text"
	workers int    // requested budget before clamping
}

// parseOptions decodes and normalizes the plan-shaping query parameters.
// Defaults are normalized to their effective values (m=32, q=7,
// strategy=paper) before digesting, so equivalent requests share one cache
// entry no matter how they spell the defaults.
func parseOptions(q url.Values) (requestOptions, error) {
	ro := requestOptions{format: "json"}
	intParam := func(name string, def int) (int, error) {
		v := q.Get(name)
		if v == "" {
			return def, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("server: bad %s=%q", name, v)
		}
		return n, nil
	}
	var err error
	if ro.opt.MISRSize, err = intParam("m", 32); err != nil {
		return ro, err
	}
	if ro.opt.Q, err = intParam("q", 7); err != nil {
		return ro, err
	}
	var seed int
	if seed, err = intParam("seed", 0); err != nil {
		return ro, err
	}
	ro.opt.Seed = int64(seed)
	if ro.opt.MaxRounds, err = intParam("rounds", 0); err != nil {
		return ro, err
	}
	if ro.workers, err = intParam("workers", 0); err != nil {
		return ro, err
	}
	ro.opt.Strategy = q.Get("strategy")
	// Normalize through the facade: fills the engine defaults, resolves the
	// strategy to its canonical registry name (""->paper, legacy
	// greedy->greedy-cost) so spellings share one cache entry, and rejects
	// unknown names here with the registry's enumerating error instead of
	// deep in the compute path.
	if ro.opt, err = ro.opt.Normalized(); err != nil {
		return ro, fmt.Errorf("server: %w", err)
	}
	switch q.Get("format") {
	case "", "json":
		ro.format = "json"
	case "text":
		ro.format = "text"
	default:
		return ro, fmt.Errorf("server: bad format=%q (want json or text)", q.Get("format"))
	}
	switch q.Get("verbose") {
	case "", "0", "false":
	case "1", "true":
		ro.verbose = true
	default:
		return ro, fmt.Errorf("server: bad verbose=%q", q.Get("verbose"))
	}
	return ro, nil
}

// clampWorkers resolves a requested per-job worker budget against the
// server's ceiling: 0 (or anything above the ceiling) means the ceiling,
// anything else is taken as asked.
func (s *Server) clampWorkers(requested int) int {
	if requested <= 0 || requested > s.cfg.MaxWorkersPerJob {
		return s.cfg.MaxWorkersPerJob
	}
	return requested
}

// Body-read sentinels with their own HTTP statuses (see bodyErrStatus).
var (
	errUnsupportedEncoding = errors.New("server: unsupported Content-Encoding (use gzip or identity)")
	errDecompressedTooBig  = errors.New("server: decompressed body exceeds the size limit")
)

// inflateLimit bounds a decompressed stream: MaxBytesReader only sees the
// wire bytes, and gzip expands up to ~1000x, so the same MaxBodyBytes limit
// is re-applied to what comes out of the decompressor.
type inflateLimit struct {
	r io.Reader
	n int64 // bytes still allowed; 1 spare so an exactly-at-limit stream can EOF
}

func (l *inflateLimit) Read(p []byte) (int, error) {
	if l.n <= 0 {
		return 0, errDecompressedTooBig
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.r.Read(p)
	l.n -= int64(n)
	return n, err
}

// readXMap parses the request body as an X-location map in any of the three
// wire formats, optionally gzip-compressed (Content-Encoding: gzip). The
// format comes from the input= parameter (json, text or binary) when given;
// otherwise a text/* Content-Type selects the text parser and
// application/octet-stream the binary one (RFC 9110 matching: media type
// case-insensitive, parameters ignored); otherwise the body is sniffed — a
// leading "XMAPB" magic means binary, anything else JSON.
func readXMap(r *http.Request, maxBody int64) (*xhybrid.XLocations, error) {
	body := io.Reader(r.Body)
	switch enc := strings.ToLower(strings.TrimSpace(r.Header.Get("Content-Encoding"))); enc {
	case "", "identity":
	case "gzip", "x-gzip":
		zr, err := gzip.NewReader(body)
		if err != nil {
			return nil, fmt.Errorf("server: gzip body: %w", err)
		}
		defer zr.Close()
		body = &inflateLimit{r: zr, n: maxBody + 1}
	default:
		return nil, fmt.Errorf("%w: %q", errUnsupportedEncoding, enc)
	}
	br := bufio.NewReader(body)
	format := r.URL.Query().Get("input")
	if format == "" {
		if ct := r.Header.Get("Content-Type"); ct != "" {
			if mt, _, err := mime.ParseMediaType(ct); err == nil {
				switch {
				case strings.HasPrefix(mt, "text/"):
					format = "text"
				case mt == "application/octet-stream":
					format = "binary"
				}
			}
		}
	}
	if format == "" {
		if peek, err := br.Peek(len(binaryMagic)); err == nil && string(peek) == binaryMagic {
			format = "binary"
		}
	}
	switch format {
	case "text":
		return xhybrid.ReadXLocationsText(br)
	case "binary", "bin":
		return xhybrid.ReadXLocationsBinary(br)
	case "", "json":
		return xhybrid.ReadXLocations(br)
	default:
		return nil, fmt.Errorf("server: bad input=%q (want json, text or binary)", format)
	}
}

// binaryMagic mirrors the binary wire format's leading magic (binio.go);
// only the sniffer needs it.
const binaryMagic = "XMAPB"

// bodyErrStatus classifies an X-map read failure: a body over the
// MaxBytesReader limit — before or after decompression — is 413 (the input
// was never seen whole), an unsupported Content-Encoding is 415, anything
// else is a 400 parse error. Every body-reading endpoint must route read
// errors through this — /v1/analyze once skipped the MaxBytesError check
// and mislabeled oversized bodies as 400 parse failures.
func bodyErrStatus(err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig), errors.Is(err, errDecompressedTooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, errUnsupportedEncoding):
		return http.StatusUnsupportedMediaType
	}
	return http.StatusBadRequest
}

// designInfo summarizes the parsed input in responses.
type designInfo struct {
	Chains   int `json:"chains"`
	ChainLen int `json:"chainLen"`
	Patterns int `json:"patterns"`
	TotalX   int `json:"totalX"`
}

func describe(x *xhybrid.XLocations) designInfo {
	return designInfo{Chains: x.Chains(), ChainLen: x.ChainLen(), Patterns: x.Patterns(), TotalX: x.TotalX()}
}

// partitionResponse is the JSON envelope of /v1/partition.
type partitionResponse struct {
	Digest    string        `json:"digest"`
	Cached    bool          `json:"cached"`
	ElapsedMs float64       `json:"elapsedMs"`
	Design    designInfo    `json:"design"`
	Plan      *xhybrid.Plan `json:"plan"`
}

// analyzeResponse is the JSON envelope of /v1/analyze.
type analyzeResponse struct {
	Design   designInfo        `json:"design"`
	Analysis *xhybrid.Analysis `json:"analysis"`
}

func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	s.reqs.Inc()
	if r.Method != http.MethodPost {
		s.errorJSON(w, http.StatusMethodNotAllowed, errors.New("server: POST required"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	ro, err := parseOptions(r.URL.Query())
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
	digest, err := planDigest(x, ro.opt)
	if err != nil {
		s.errorJSON(w, http.StatusInternalServerError, err)
		return
	}

	start := time.Now()
	if plan, ok := s.cache.get(digest); ok {
		s.writePlan(w, r, ro, x, digest, plan, true, start)
		return
	}

	// Admission: one bounded, first-come first-served wait for a job slot
	// under the request context.
	if err := s.queue.acquire(r.Context()); err != nil {
		if errors.Is(err, errQueueFull) {
			s.rejected.Inc()
			w.Header().Set("Retry-After", "1")
			s.errorJSON(w, http.StatusServiceUnavailable, err)
			return
		}
		// The wait ended with the request context: the client hung up (or
		// its own deadline passed). Nobody reads the body, so skip the
		// doomed write.
		s.disconnected.Inc()
		return
	}
	defer s.queue.release()

	ctx := r.Context()
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	opt := ro.opt
	opt.Workers = s.clampWorkers(ro.workers)
	opt.Stats = s.rec
	end := s.rec.Span("server.partition")
	plan, err := xhybrid.PartitionCtx(ctx, x, opt)
	end()
	if err != nil {
		switch {
		case r.Context().Err() != nil:
			// The client is gone — it can never read a response, so do not
			// write one. This used to be lumped with server-side aborts
			// under one `canceled` counter and answered with a 503 nobody
			// would see.
			s.disconnected.Inc()
		case ctx.Err() != nil:
			// Server-side abort: the JobTimeout deadline expired while the
			// client still listens. 503 tells retrying proxies the server
			// gave up, not that the input was bad.
			s.timedout.Inc()
			s.errorJSON(w, http.StatusServiceUnavailable, err)
		default:
			s.badReq.Inc()
			s.errorJSON(w, http.StatusBadRequest, err)
		}
		return
	}
	s.cache.put(digest, plan)
	s.completed.Inc()
	s.writePlan(w, r, ro, x, digest, plan, false, start)
}

// writePlan renders one partition result in the requested format. The text
// format goes through the same Plan.WriteText as cmd/xhybrid partition, so
// the body is byte-identical to the CLI's stdout for equal inputs.
func (s *Server) writePlan(w http.ResponseWriter, _ *http.Request, ro requestOptions, x *xhybrid.XLocations, digest string, plan *xhybrid.Plan, cached bool, start time.Time) {
	hit := "miss"
	if cached {
		hit = "hit"
	}
	w.Header().Set("X-Cache", hit)
	w.Header().Set("X-Plan-Digest", digest)
	if ro.format == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := plan.WriteText(w, x, ro.verbose); err != nil {
			// Headers are gone; nothing to do beyond dropping the stream.
			return
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(partitionResponse{
		Digest:    digest,
		Cached:    cached,
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
		Design:    describe(x),
		Plan:      plan,
	})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.reqs.Inc()
	if r.Method != http.MethodPost {
		s.errorJSON(w, http.StatusMethodNotAllowed, errors.New("server: POST required"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	x, err := readXMap(r, s.cfg.MaxBodyBytes)
	if err != nil {
		s.badReq.Inc()
		s.errorJSON(w, bodyErrStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(analyzeResponse{Design: describe(x), Analysis: xhybrid.Analyze(x)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Queue depth and cache size are sampled at scrape time; everything
	// else accumulates in the shared recorder as requests run.
	running, waiting := s.queue.depth()
	s.rec.Set("server.queue.running", running)
	s.rec.Set("server.queue.waiting", waiting)
	s.rec.Set("server.cache.entries", int64(s.cache.len()))
	s.rec.Set("server.cache.bytes", s.cache.size())
	if s.cfg.Jobs != nil {
		jr, jw := s.cfg.Jobs.Depth()
		s.rec.Set("jobs.queue.running", jr)
		s.rec.Set("jobs.queue.waiting", jw)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = writeMetrics(w, s.rec.Snapshot())
}

// errorJSON writes one {"error": ...} body with the given status.
func (s *Server) errorJSON(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
