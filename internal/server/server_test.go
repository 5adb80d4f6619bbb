package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"xhybrid"
)

const fixturePath = "../../testdata/paperexample.json"

func fixtureBody(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	return b
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func post(t *testing.T, s *Server, target string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// TestPartitionTextByteIdentical locks the serving layer's headline
// guarantee: a format=text response is byte-for-byte the output of
// `xhybrid partition -in testdata/paperexample.json -m 10 -q 2` (the CI
// smoke job diffs the real binaries; this test pins the shared renderer
// path inside the process).
func TestPartitionTextByteIdentical(t *testing.T) {
	body := fixtureBody(t)
	x, err := xhybrid.ReadXLocations(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	plan, err := xhybrid.Partition(x, xhybrid.Options{MISRSize: 10, Q: 2})
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	var want bytes.Buffer
	if err := plan.WriteText(&want, x, false); err != nil {
		t.Fatalf("render: %v", err)
	}

	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/partition?m=10&q=2&format=text", body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Body.String(); got != want.String() {
		t.Fatalf("served text differs from CLI rendering:\n--- want ---\n%s--- got ---\n%s", want.String(), got)
	}
}

// TestPartitionCacheHit proves the memoization contract: the second
// identical request is answered from the LRU (X-Cache: hit, cached:true,
// hit counter incremented) with an identical plan.
func TestPartitionCacheHit(t *testing.T) {
	s := newTestServer(t, Config{})
	body := fixtureBody(t)

	first := post(t, s, "/v1/partition?m=10&q=2", body, nil)
	if first.Code != http.StatusOK {
		t.Fatalf("first status %d: %s", first.Code, first.Body.String())
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", got)
	}
	second := post(t, s, "/v1/partition?m=10&q=2", body, nil)
	if second.Code != http.StatusOK {
		t.Fatalf("second status %d: %s", second.Code, second.Body.String())
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", got)
	}

	var r1, r2 partitionResponse
	if err := json.Unmarshal(first.Body.Bytes(), &r1); err != nil {
		t.Fatalf("decode first: %v", err)
	}
	if err := json.Unmarshal(second.Body.Bytes(), &r2); err != nil {
		t.Fatalf("decode second: %v", err)
	}
	if r1.Cached || !r2.Cached {
		t.Fatalf("cached flags = %v/%v, want false/true", r1.Cached, r2.Cached)
	}
	if r1.Digest != r2.Digest {
		t.Fatalf("digests differ: %s vs %s", r1.Digest, r2.Digest)
	}
	p1, _ := json.Marshal(r1.Plan)
	p2, _ := json.Marshal(r2.Plan)
	if !bytes.Equal(p1, p2) {
		t.Fatal("cached plan differs from computed plan")
	}

	snap := s.rec.Snapshot()
	if hits := snap.CounterValue("server.cache.hits"); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if misses := snap.CounterValue("server.cache.misses"); misses != 1 {
		t.Fatalf("cache misses = %d, want 1", misses)
	}
}

// TestCacheSharedAcrossFormats locks the canonical digest: the same X-map
// posted as text hits the entry a JSON request populated, and a different
// option set misses it.
func TestCacheSharedAcrossFormats(t *testing.T) {
	s := newTestServer(t, Config{})
	jsonBody := fixtureBody(t)
	x, err := xhybrid.ReadXLocations(bytes.NewReader(jsonBody))
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := x.WriteText(&text); err != nil {
		t.Fatal(err)
	}

	if w := post(t, s, "/v1/partition?m=10&q=2", jsonBody, nil); w.Code != http.StatusOK {
		t.Fatalf("json post: %d %s", w.Code, w.Body.String())
	}
	w := post(t, s, "/v1/partition?m=10&q=2", text.Bytes(), map[string]string{"Content-Type": "text/plain"})
	if w.Code != http.StatusOK {
		t.Fatalf("text post: %d %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("text-format request X-Cache = %q, want hit (digest should be input-format independent)", got)
	}
	// Different q → different plan key → miss.
	if w := post(t, s, "/v1/partition?m=10&q=1", jsonBody, nil); w.Header().Get("X-Cache") != "miss" {
		t.Fatal("distinct options unexpectedly shared a cache entry")
	}
	// Worker budget is excluded from the key by design.
	if w := post(t, s, "/v1/partition?m=10&q=2&workers=1", jsonBody, nil); w.Header().Get("X-Cache") != "hit" {
		t.Fatal("workers parameter leaked into the cache key")
	}
}

// TestJobQueueBounds unit-tests the admission controller: concurrency and
// wait bounds, rejection, and context-aware waiting.
func TestJobQueueBounds(t *testing.T) {
	q := newSlotQueue(1, 0)
	if err := q.acquire(context.Background()); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if err := q.acquire(context.Background()); err != errQueueFull {
		t.Fatalf("overflow acquire = %v, want errQueueFull", err)
	}
	q.release()
	if err := q.acquire(context.Background()); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	q.release()

	// With wait capacity, a canceled context aborts the wait.
	q = newSlotQueue(1, 1)
	if err := q.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := q.acquire(ctx); err != context.Canceled {
		t.Fatalf("canceled wait = %v, want context.Canceled", err)
	}
	if _, waiting := q.depth(); waiting != 0 {
		t.Fatalf("canceled waiter still counted: waiting = %d", waiting)
	}
	q.release()
}

// TestQueueFullHTTP drives the rejection path end to end: with one slot
// held and no wait capacity, a request gets 503 + Retry-After and the
// rejection counter moves.
func TestQueueFullHTTP(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: -1})
	if err := s.queue.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.queue.release()
	w := post(t, s, "/v1/partition?m=10&q=2", fixtureBody(t), nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if got := s.rec.Snapshot().CounterValue("server.jobs.rejected"); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

// TestCanceledRequestStopsCompute threads a dead context through the full
// handler: the pipeline must abort without computing for a client that is
// gone, the disconnect must land on its own counter (not the server-side
// timeout one it used to share), and — since nobody can read it — no
// response body may be written.
func TestCanceledRequestStopsCompute(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/partition?m=10&q=2", bytes.NewReader(fixtureBody(t))).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Body.Len() != 0 {
		t.Fatalf("wrote %d body bytes for a disconnected client: %s", w.Body.Len(), w.Body.String())
	}
	snap := s.rec.Snapshot()
	if got := snap.CounterValue("server.jobs.disconnected"); got != 1 {
		t.Fatalf("disconnected counter = %d, want 1", got)
	}
	if got := snap.CounterValue("server.jobs.timedout"); got != 0 {
		t.Fatalf("timedout counter = %d, want 0 (client disconnects must not count as server timeouts)", got)
	}
	if s.cache.len() != 0 {
		t.Fatal("aborted job left a cache entry")
	}
}

// TestJobTimeoutIsNotADisconnect locks the other half of the split: when
// the server's own JobTimeout expires while the client still listens, the
// request gets a real 503 and the timeout counter — not the disconnect one.
func TestJobTimeoutIsNotADisconnect(t *testing.T) {
	s := newTestServer(t, Config{JobTimeout: time.Nanosecond})
	w := post(t, s, "/v1/partition?m=10&q=2", fixtureBody(t), nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", w.Code, w.Body.String())
	}
	snap := s.rec.Snapshot()
	if got := snap.CounterValue("server.jobs.timedout"); got != 1 {
		t.Fatalf("timedout counter = %d, want 1", got)
	}
	if got := snap.CounterValue("server.jobs.disconnected"); got != 0 {
		t.Fatalf("disconnected counter = %d, want 0", got)
	}
}

// TestBadRequests covers the 4xx surface.
func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name   string
		method string
		target string
		body   string
		want   int
	}{
		{"get method", http.MethodGet, "/v1/partition", "", http.StatusMethodNotAllowed},
		{"bad json", http.MethodPost, "/v1/partition", "{nope", http.StatusBadRequest},
		{"bad m", http.MethodPost, "/v1/partition?m=banana", "{}", http.StatusBadRequest},
		{"bad format", http.MethodPost, "/v1/partition?format=xml", "{}", http.StatusBadRequest},
		{"bad strategy", http.MethodPost, "/v1/partition?strategy=magic", string(fixtureBody(t)), http.StatusBadRequest},
		{"analyze get", http.MethodGet, "/v1/analyze", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d (body %s)", w.Code, tc.want, w.Body.String())
			}
		})
	}
}

// TestAnalyzeEndpoint sanity-checks the Section 3 analysis surface.
func TestAnalyzeEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/analyze", fixtureBody(t), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp analyzeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Design.TotalX != 28 || resp.Analysis == nil || resp.Analysis.TotalX != 28 {
		t.Fatalf("unexpected analysis payload: %+v", resp)
	}
}

// TestHealthzAndMetrics exercises the operational endpoints: liveness, the
// Prometheus rendering, and the scrape-time gauges.
func TestHealthzAndMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK || w.Body.String() != "ok\n" {
		t.Fatalf("healthz: %d %q", w.Code, w.Body.String())
	}

	if w := post(t, s, "/v1/partition?m=10&q=2", fixtureBody(t), nil); w.Code != http.StatusOK {
		t.Fatal(w.Body.String())
	}
	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	body := w.Body.String()
	for _, want := range []string{
		"xhybridd_server_requests 1",
		"xhybridd_server_cache_misses 1",
		"xhybridd_server_queue_running 0",
		"xhybridd_core_rounds",
		"xhybridd_server_partition_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestIncrementalCountersInMetrics checks the incremental scoring engine's
// cache and delta counters flow through the server's shared recorder into
// /metrics, and that a real run actually engages them — the state cache must
// record misses (fresh partitions were interned) and splits must be priced
// by delta, not full recomputation.
func TestIncrementalCountersInMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := post(t, s, "/v1/partition?m=10&q=2&strategy=greedy", fixtureBody(t), nil); w.Code != http.StatusOK {
		t.Fatal(w.Body.String())
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	body := w.Body.String()
	metric := func(name string) int64 {
		t.Helper()
		for _, line := range strings.Split(body, "\n") {
			var v int64
			if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
				return v
			}
		}
		t.Fatalf("metrics missing %q:\n%s", name, body)
		return 0
	}
	// Exported at all, and zero is a legal value for the hit counters on a
	// tiny fixture.
	for _, name := range []string{
		"xhybridd_core_state_cache_hits",
		"xhybridd_core_groups_cache_hits",
		"xhybridd_core_groups_cache_misses",
		"xhybridd_core_cellindex_cells_scanned",
	} {
		metric(name)
	}
	if v := metric("xhybridd_core_state_cache_misses"); v == 0 {
		t.Error("state cache recorded no misses; a run must intern fresh partitions")
	}
	if v := metric("xhybridd_core_score_delta"); v == 0 {
		t.Error("no delta-priced scores; splits should not be fully recomputed")
	}
	if v := metric("xhybridd_core_score_full"); v == 0 {
		t.Error("initial cost should be priced by one full summation")
	}
	if v := metric("xhybridd_core_cellindex_builds"); v == 0 {
		t.Error("no partition-local cell indexes were built")
	}
}

// TestGracefulShutdownDrains starts a real listener, opens a request whose
// body is still streaming when shutdown begins, and checks that the drain
// lets it finish with a full 200 instead of resetting the connection.
func TestGracefulShutdownDrains(t *testing.T) {
	s := newTestServer(t, Config{DrainTimeout: 5 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	body := fixtureBody(t)
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost,
		fmt.Sprintf("http://%s/v1/partition?m=10&q=2&format=text", ln.Addr()), pr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		pw.Write(body[:len(body)/2])
		time.Sleep(50 * time.Millisecond) // shutdown fires while we stream
		pw.Write(body[len(body)/2:])
		pw.Close()
	}()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read drained response: %v", err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(out), "partitions:") {
		t.Fatalf("drained response: %d %q", resp.StatusCode, out)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after shutdown")
	}
}

// TestLRUEviction checks byte accounting and LRU order at the cache layer
// directly.
func TestLRUEviction(t *testing.T) {
	p := &xhybrid.Plan{}
	c := newResultCache(2*planCost(p), nil) // room for exactly two empty plans
	c.put("a", p)
	c.put("b", p)
	if _, ok := c.get("a"); !ok { // promote a; b is now LRU
		t.Fatal("a missing")
	}
	c.put("c", p) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c missing")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

// TestLRUByteWeighting locks the bugfix boundary: the budget is enforced
// in plan bytes, not plan count — one big plan displaces as many small
// entries as its weight demands, and a plan bigger than the whole budget
// is never cached. The old plan-counted LRU weighed a 100k-cell plan the
// same as a toy one, so N huge entries could pin ~unbounded memory.
func TestLRUByteWeighting(t *testing.T) {
	small := &xhybrid.Plan{}
	big := &xhybrid.Plan{Partitions: []xhybrid.PartitionInfo{{Patterns: make([]int, 1000)}}}
	budget := 10*planCost(small) + planCost(big) - 1 // one small short of everything
	c := newResultCache(budget, nil)
	for i := 0; i < 10; i++ {
		c.put(fmt.Sprintf("s%d", i), small)
	}
	if c.len() != 10 {
		t.Fatalf("len = %d, want 10 before the big insert", c.len())
	}
	c.put("big", big)
	if c.size() > budget {
		t.Fatalf("cache over budget: %d > %d", c.size(), budget)
	}
	if _, ok := c.get("big"); !ok {
		t.Fatal("big plan not cached")
	}
	if _, ok := c.get("s0"); ok {
		t.Fatal("oldest small entry survived; big insert must evict by bytes")
	}
	if _, ok := c.get("s9"); !ok {
		t.Fatal("newest small entry evicted; only the cold tail should go")
	}

	// A plan heavier than the whole budget must not wipe the cache to
	// store itself.
	before := c.len()
	c.put("whale", &xhybrid.Plan{Partitions: []xhybrid.PartitionInfo{{Patterns: make([]int, 1<<20)}}})
	if _, ok := c.get("whale"); ok {
		t.Fatal("over-budget plan was cached")
	}
	if c.len() != before {
		t.Fatalf("over-budget put changed the cache: len %d -> %d", before, c.len())
	}
}
