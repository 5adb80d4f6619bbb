package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"strings"
	"time"

	"xhybrid"
	"xhybrid/internal/server"
	"xhybrid/internal/workload"
	"xhybrid/internal/xmap"
)

const (
	// serveMissEvery makes every fourth request of serve-mixed a cache miss.
	serveMissEvery = 4
	// serveInputs is how many CKT-B/4 maps serve-mixed takes turns with,
	// one group of serveMissEvery requests each. One map per run let the
	// seed's map move p90 by about 10%; four average that out.
	serveInputs = 4
)

// serveWorkload is serve-mixed: one closed-loop client POSTing the gzip
// XMAPB body of a CKT-B/4 map to an in-process server on loopback. Every
// fourth request carries a seed not yet used, so it misses and computes;
// the rest reuse the warm seed and hit the result cache.
type serveWorkload struct {
	seed     int64
	bodies   [][]byte        // gzip XMAPB of each map
	warm     []*xhybrid.Plan // each map's warm-up plan
	client   *http.Client
	url      string
	stop     context.CancelFunc
	done     chan error
	nextSeed int
	base     map[string]int64 // /metrics after the warm-ups
	tr       serveTrace
}

// serveTrace holds the per-layer samples of traced requests.
type serveTrace struct {
	hit, miss, decode []float64
}

func newServeWorkload(seed int64) workloadRunner { return &serveWorkload{seed: seed} }

func (w *serveWorkload) cycle() int { return serveMissEvery * serveInputs }

func (w *serveWorkload) setup(ctx context.Context) error {
	w.tr = serveTrace{}
	for k := 0; k < serveInputs; k++ {
		prof := workload.Scaled(workload.CKTB(), 4)
		prof.Seed = derive(w.seed, "serve", k)
		m, err := prof.Generate()
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if err := xmap.WriteBinary(zw, m, prof.Chains, prof.ChainLen); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		w.bodies = append(w.bodies, buf.Bytes())
	}

	srv, err := server.New(server.Config{})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sctx, stop := context.WithCancel(ctx)
	w.stop, w.done = stop, make(chan error, 1)
	go func() { w.done <- srv.Serve(sctx, ln) }()
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{}

	// Warm-ups, one per map and request class: the miss computes the warm
	// seed's plan, the hit then finds it cached.
	for k, body := range w.bodies {
		x, err := decodeBody(body)
		if err != nil {
			return err
		}
		var plans []*xhybrid.Plan
		for _, class := range []string{"miss", "hit"} {
			status, cache, resp, err := w.post(ctx, k, 0)
			if err != nil {
				return err
			}
			if status != http.StatusOK || cache != class {
				return fmt.Errorf("serve-mixed warm-up: status %d, X-Cache %q, want 200 and %q", status, cache, class)
			}
			plan, err := decodePlan(resp)
			if err != nil {
				return err
			}
			if err := checkPlan(x, plan, 32, 7); err != nil {
				return fmt.Errorf("serve-mixed warm-up map %d: %w", k, err)
			}
			plans = append(plans, plan)
		}
		if !reflect.DeepEqual(plans[0], plans[1]) {
			return fmt.Errorf("serve-mixed warm-up map %d: the cached plan differs from the computed one", k)
		}
		w.warm = append(w.warm, plans[0])
	}
	w.base, err = w.scrape(ctx)
	return err
}

// post sends map k with the given seed parameter and reads the whole
// response.
func (w *serveWorkload) post(ctx context.Context, k, seed int) (status int, cache string, body []byte, err error) {
	url := w.url + "/v1/partition?strategy=greedy-cost&workers=1&seed=" + strconv.Itoa(seed)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(w.bodies[k]))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), body, nil
}

// decodePlan extracts the plan from a /v1/partition JSON response.
func decodePlan(body []byte) (*xhybrid.Plan, error) {
	var resp struct {
		Plan *xhybrid.Plan `json:"plan"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("response body: %w", err)
	}
	if resp.Plan == nil {
		return nil, fmt.Errorf("response body carries no plan")
	}
	return resp.Plan, nil
}

// decodeBody is the server's decode of a request body: gunzip, then XMAPB.
func decodeBody(body []byte) (*xhybrid.XLocations, error) {
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return xhybrid.ReadXLocationsBinary(zr)
}

func (w *serveWorkload) op(ctx context.Context, i int, traced bool) (func() (exact, error), error) {
	k := i / serveMissEvery % serveInputs
	seed, class := 0, "hit"
	if i%serveMissEvery == serveMissEvery-1 {
		w.nextSeed++
		seed, class = w.nextSeed, "miss"
	}
	t0 := time.Now()
	status, cache, body, err := w.post(ctx, k, seed)
	if err != nil {
		return nil, err
	}
	lat := time.Since(t0).Seconds()
	return func() (exact, error) {
		if status != http.StatusOK {
			return exact{}, fmt.Errorf("status %d: %.200s", status, body)
		}
		if cache != class {
			return exact{}, fmt.Errorf("X-Cache %q, want %q", cache, class)
		}
		plan, err := decodePlan(body)
		if err != nil {
			return exact{}, err
		}
		if !reflect.DeepEqual(plan, w.warm[k]) {
			return exact{}, fmt.Errorf("map %d seed %d: plan differs from the warm-up plan", k, seed)
		}
		if traced {
			if class == "hit" {
				w.tr.hit = append(w.tr.hit, lat)
			} else {
				w.tr.miss = append(w.tr.miss, lat)
			}
			t0 := time.Now()
			if _, err := decodeBody(w.bodies[k]); err != nil {
				return exact{}, err
			}
			w.tr.decode = append(w.tr.decode, time.Since(t0).Seconds())
		}
		return exact{bits: plan.TotalBits, testTime: plan.TestTimeHybrid}, nil
	}, nil
}

// scrape reads the server's /metrics into a name → value map.
func (w *serveWorkload) scrape(ctx context.Context) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

// parseMetrics reads Prometheus text exposition lines "name value",
// skipping comments.
func parseMetrics(r io.Reader) (map[string]int64, error) {
	out := map[string]int64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[f[0]] = v
	}
	return out, sc.Err()
}

func (w *serveWorkload) layers(out *metrics) {
	ctx := context.Background()
	now, err := w.scrape(ctx)
	if err != nil {
		out.fail(err)
		return
	}
	delta := func(name string) int64 { return now["xhybridd_"+name] - w.base["xhybridd_"+name] }
	hit := quantile(w.tr.hit, 0.5)
	decode := quantile(w.tr.decode, 0.5)
	out.set("server.hit_p50_s", hit)
	out.set("server.miss_p50_s", quantile(w.tr.miss, 0.5))
	out.set("server.decode_s", decode)
	out.set("server.other_s", hit-decode)
	out.set("server.compute_s", float64(delta("server_partition_nanos_total"))/1e9/float64(delta("server_partition_count")))
	out.set("server.cache_hit_ratio", share(delta("server_cache_hits"), delta("server_cache_misses")))
}

func (w *serveWorkload) close() {
	if w.stop == nil {
		return
	}
	w.stop()
	if err := <-w.done; err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server:", err)
	}
	w.client.CloseIdleConnections()
}
