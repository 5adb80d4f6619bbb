// Command loadgen drives sustained, concurrent, multi-tenant load against
// a running xhybridd and reports latency percentiles plus scheduling
// fairness. It is the soak harness behind BENCH_serve.json's serving rows
// and the CI serve-soak job's fairness gate.
//
// Usage:
//
//	loadgen [-url http://127.0.0.1:8471] [-tenants FILE] [-duration 10s]
//	        [-warmup 3s] [-conc 4] [-workload ckt-a10] [-m 32]
//	        [-q 7] [-strategy paper] [-wire binary] [-distinct 0]
//	        [-o report.json]
//
// The workload body is one synthetic X-map (a named workload, scaled down
// by its suffix) generated in memory; requests vary the seed query
// parameter, which is part of the server's cache key, so -distinct controls
// the cache profile: 0 gives every request a unique seed (every request
// computes — the saturating soak), N cycles N seeds (a 1/N miss rate once
// warm).
//
// With -tenants FILE (the same JSON key file xhybridd loads) every tenant
// becomes a closed-loop lane of -conc workers sending its key, and the
// report adds per-tenant throughput shares against the weight-implied
// expectation — max_deviation is the number the CI gate holds under 0.15.
// Without -tenants a single anonymous lane measures plain latency.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xhybrid"
	"xhybrid/internal/server"
)

func die(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}

// laneStats is one tenant's outcome counters.
type laneStats struct {
	ok       atomic.Int64
	rejected atomic.Int64 // 429 + 503: admission said no
	errors   atomic.Int64 // transport failures and every other non-200
}

// report is the JSON document loadgen emits; BENCH_serve.json rows quote
// its latency and fairness fields.
type report struct {
	Config   reportConfig   `json:"config"`
	Totals   reportTotals   `json:"totals"`
	Latency  reportLatency  `json:"latency_s"`
	Tenants  []tenantReport `json:"tenants,omitempty"`
	Fairness *fairness      `json:"fairness,omitempty"`
}

type reportConfig struct {
	URL string `json:"url"`
	// Profile is the -workload name, scale suffix included.
	Profile   string  `json:"profile"`
	BodyBytes int     `json:"body_bytes"`
	M         int     `json:"m"`
	Q         int     `json:"q"`
	Strategy  string  `json:"strategy"`
	Distinct  int     `json:"distinct"`
	Conc      int     `json:"conc_per_tenant"`
	Duration  float64 `json:"duration_s"`
	Warmup    float64 `json:"warmup_s"`
}

type reportTotals struct {
	Requests int64   `json:"requests"`
	OK       int64   `json:"ok"`
	Rejected int64   `json:"rejected"`
	Errors   int64   `json:"errors"`
	ReqPerS  float64 `json:"req_per_s"`
}

type reportLatency struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

type tenantReport struct {
	ID            string  `json:"id"`
	Weight        int     `json:"weight"`
	OK            int64   `json:"ok"`
	Rejected      int64   `json:"rejected"`
	Errors        int64   `json:"errors"`
	ReqPerS       float64 `json:"req_per_s"`
	Share         float64 `json:"share"`
	ExpectedShare float64 `json:"expected_share"`
	Deviation     float64 `json:"deviation"`
}

// fairness summarizes how far the observed per-tenant throughput split
// strayed from the weight-implied split. max_deviation is relative:
// |share - expected| / expected, worst tenant.
type fairness struct {
	MaxDeviation float64 `json:"max_deviation"`
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8471", "base URL of the daemon")
	tenantsFile := flag.String("tenants", "", "tenant key file; one worker lane per tenant (empty = one anonymous lane)")
	duration := flag.Duration("duration", 10*time.Second, "soak length")
	warmup := flag.Duration("warmup", 3*time.Second, "ramp-up window excluded from the report (lanes filling, connections dialing)")
	conc := flag.Int("conc", 4, "closed-loop workers per tenant")
	workloadName := flag.String("workload", "ckt-a10", "workload name: ckt-a, ckt-b or ckt-c, optionally scaled down as in ckt-a10")
	m := flag.Int("m", 32, "MISR size query parameter")
	q := flag.Int("q", 7, "q query parameter")
	strategy := flag.String("strategy", "paper", "strategy query parameter")
	wire := flag.String("wire", "binary", "upload format: binary (XMAPB, cheap to parse) or json")
	distinct := flag.Int("distinct", 0, "distinct request seeds to cycle (0 = unique per request: every request computes)")
	out := flag.String("o", "", "report file (default stdout)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	var tenants []server.Tenant
	if *tenantsFile != "" {
		var err error
		tenants, err = server.LoadTenants(*tenantsFile)
		if err != nil {
			die(err)
		}
	} else {
		tenants = []server.Tenant{{ID: "anonymous", Weight: 1}}
	}

	body, contentType, err := buildBody(*workloadName, *wire)
	if err != nil {
		die(err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: %s %s body %d bytes, %d tenants x %d workers, %s soak against %s\n",
		*workloadName, *wire, len(body), len(tenants), *conc, *duration, *url)

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        len(tenants) * *conc,
		MaxIdleConnsPerHost: len(tenants) * *conc,
	}}

	// Seeds offset by a per-run base: the seed is part of the server's
	// cache key, so without the offset a second soak against a live daemon
	// replays the first one's digests and measures the cache instead of
	// the scheduler.
	seedBase := time.Now().UnixNano() % (1 << 30)
	var (
		seedSeq   atomic.Int64
		latMu     sync.Mutex
		latencies []float64
		stats     = make([]*laneStats, len(tenants))
		wg        sync.WaitGroup
	)
	for i := range stats {
		stats[i] = &laneStats{}
	}
	// The warmup window is excluded from every reported number: while the
	// lanes are still filling and connections dialing, grants follow arrival
	// order rather than the weights, and counting that ramp (or the drain at
	// the end, which is symmetric but much shorter) understates fairness.
	if *warmup >= *duration {
		*warmup = *duration / 4
	}
	start := time.Now()
	warmupEnd := start.Add(*warmup)
	deadline := start.Add(*duration)
	for ti := range tenants {
		ten := tenants[ti]
		st := stats[ti]
		for w := 0; w < *conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					seed := seedSeq.Add(1)
					if *distinct > 0 {
						seed %= int64(*distinct)
					}
					seed += seedBase
					target := fmt.Sprintf("%s/v1/partition?m=%d&q=%d&strategy=%s&seed=%d",
						*url, *m, *q, *strategy, seed)
					req, err := http.NewRequest(http.MethodPost, target, bytes.NewReader(body))
					if err != nil {
						st.errors.Add(1)
						continue
					}
					req.Header.Set("Content-Type", contentType)
					if ten.Key != "" {
						req.Header.Set("X-API-Key", ten.Key)
					}
					t0 := time.Now()
					measured := !t0.Before(warmupEnd)
					resp, err := client.Do(req)
					if err != nil {
						if measured {
							st.errors.Add(1)
						}
						continue
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch {
					case resp.StatusCode == http.StatusOK:
						if measured {
							st.ok.Add(1)
							lat := time.Since(t0).Seconds()
							latMu.Lock()
							latencies = append(latencies, lat)
							latMu.Unlock()
						}
					case resp.StatusCode == http.StatusTooManyRequests ||
						resp.StatusCode == http.StatusServiceUnavailable:
						if measured {
							st.rejected.Add(1)
						}
						// Closed-loop backoff: a rejected worker yields
						// briefly instead of spinning on the admission gate.
						time.Sleep(time.Millisecond)
					default:
						if measured {
							st.errors.Add(1)
						}
					}
				}
			}()
		}
	}
	wg.Wait()
	// Rates are over the measured window only (warmup excluded).
	elapsed := time.Since(warmupEnd).Seconds()

	rep := report{
		Config: reportConfig{
			URL: *url, Profile: *workloadName, BodyBytes: len(body),
			M: *m, Q: *q, Strategy: *strategy, Distinct: *distinct,
			Conc: *conc, Duration: time.Since(start).Seconds(), Warmup: warmup.Seconds(),
		},
		Latency: percentiles(latencies),
	}
	weightSum := 0
	for _, t := range tenants {
		weightSum += max(t.Weight, 1)
	}
	var totalOK int64
	for _, st := range stats {
		totalOK += st.ok.Load()
	}
	var worst float64
	for ti, t := range tenants {
		st := stats[ti]
		tr := tenantReport{
			ID: t.ID, Weight: max(t.Weight, 1),
			OK: st.ok.Load(), Rejected: st.rejected.Load(), Errors: st.errors.Load(),
			ReqPerS:       float64(st.ok.Load()) / elapsed,
			ExpectedShare: float64(max(t.Weight, 1)) / float64(weightSum),
		}
		if totalOK > 0 {
			tr.Share = float64(tr.OK) / float64(totalOK)
			tr.Deviation = math.Abs(tr.Share-tr.ExpectedShare) / tr.ExpectedShare
		}
		worst = math.Max(worst, tr.Deviation)
		rep.Tenants = append(rep.Tenants, tr)
		rep.Totals.Requests += tr.OK + tr.Rejected + tr.Errors
		rep.Totals.OK += tr.OK
		rep.Totals.Rejected += tr.Rejected
		rep.Totals.Errors += tr.Errors
	}
	rep.Totals.ReqPerS = float64(rep.Totals.OK) / elapsed
	if len(tenants) > 1 {
		rep.Fairness = &fairness{MaxDeviation: worst}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			die(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		die(err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d ok / %d rejected / %d errors in %.1fs (%.1f req/s); p50 %.4fs p99 %.4fs\n",
		rep.Totals.OK, rep.Totals.Rejected, rep.Totals.Errors, elapsed, rep.Totals.ReqPerS,
		rep.Latency.P50, rep.Latency.P99)
	if rep.Fairness != nil {
		fmt.Fprintf(os.Stderr, "loadgen: fairness max_deviation %.3f\n", rep.Fairness.MaxDeviation)
	}
	if rep.Totals.OK == 0 {
		die(fmt.Errorf("no successful requests — is the daemon up at %s?", *url))
	}
}

// buildBody generates the workload X-map and serializes it once; every
// request re-sends these bytes. The binary format keeps the server's
// per-request parse cost (paid outside the job slot) negligible, so the
// soak measures admission scheduling, not JSON decoding.
func buildBody(name, wire string) (body []byte, contentType string, err error) {
	x, err := xhybrid.Workload(name, 0)
	if err != nil {
		return nil, "", err
	}
	var buf bytes.Buffer
	switch wire {
	case "binary":
		err = x.WriteBinary(&buf)
		contentType = "application/octet-stream"
	case "json":
		err = x.WriteJSON(&buf)
		contentType = "application/json"
	default:
		return nil, "", fmt.Errorf("unknown wire format %q (want binary or json)", wire)
	}
	if err != nil {
		return nil, "", err
	}
	return buf.Bytes(), contentType, nil
}

// percentiles computes the latency summary over the OK requests.
func percentiles(lat []float64) reportLatency {
	if len(lat) == 0 {
		return reportLatency{}
	}
	sort.Float64s(lat)
	at := func(p float64) float64 {
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	sum := 0.0
	for _, v := range lat {
		sum += v
	}
	return reportLatency{
		P50:  at(0.50),
		P90:  at(0.90),
		P99:  at(0.99),
		Mean: sum / float64(len(lat)),
		Max:  lat[len(lat)-1],
	}
}
