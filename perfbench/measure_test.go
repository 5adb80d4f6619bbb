package main

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {1, 10}, {0.01, 1}, {0.95, 10}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestTailSamples(t *testing.T) {
	// minOps must leave ten samples beyond the p90.
	if got := tailSamples(minOps, 0.9); got != 10 {
		t.Errorf("tailSamples(%d, 0.9) = %d, want 10", minOps, got)
	}
	for _, c := range []struct{ n, want int }{{0, 0}, {1, 0}, {10, 1}, {104, 10}, {99, 9}} {
		if got := tailSamples(c.n, 0.9); got != c.want {
			t.Errorf("tailSamples(%d, 0.9) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestShare(t *testing.T) {
	if got := share(3, 1); got != 0.75 {
		t.Errorf("share(3, 1) = %v, want 0.75", got)
	}
	if got := share(0, 5); got != 0 {
		t.Errorf("share(0, 5) = %v, want 0", got)
	}
	if !math.IsNaN(share(0, 0)) {
		t.Error("share(0, 0) is not NaN")
	}
}

const procStat = `cpu  100 5 50 800 10 2 3 30 7 0
cpu0 50 2 25 400 5 1 1 15 3 0
intr 12345
`

func TestParseCPUTimes(t *testing.T) {
	got, err := parseCPUTimes(procStat)
	if err != nil {
		t.Fatal(err)
	}
	// user..steal, guest excluded: 100+5+50+800+10+2+3+30.
	if got.total != 1000 || got.steal != 30 {
		t.Errorf("parseCPUTimes = %+v, want total 1000 steal 30", got)
	}
	for _, bad := range []string{"", "cpu 1 2 3\n", "cpu 1 2 3 4 5 6 7 x\n"} {
		if _, err := parseCPUTimes(bad); err == nil {
			t.Errorf("parseCPUTimes(%q) accepted a malformed line", bad)
		}
	}
}

func TestStealFrac(t *testing.T) {
	a := cpuTimes{total: 1000, steal: 30}
	b := cpuTimes{total: 1400, steal: 50}
	if got := stealFrac(a, b); got != 0.05 {
		t.Errorf("stealFrac = %v, want 0.05", got)
	}
	if got := stealFrac(a, a); got != 0 {
		t.Errorf("stealFrac over no time = %v, want 0", got)
	}
}

func TestParseMetrics(t *testing.T) {
	got, err := parseMetrics(strings.NewReader("# TYPE a counter\na 3\nb_count 12\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] != 3 || got["b_count"] != 12 || len(got) != 2 {
		t.Errorf("parseMetrics = %v", got)
	}
	if _, err := parseMetrics(strings.NewReader("a 1.5\n")); err == nil {
		t.Error("parseMetrics accepted a non-integer sample")
	}
}

func TestDerive(t *testing.T) {
	if derive(1, "plan", 0) != derive(1, "plan", 0) {
		t.Error("derive is not deterministic")
	}
	seen := map[int64]bool{}
	for _, s := range []int64{1, 2} {
		for _, stream := range []string{"plan", "circuit"} {
			for k := 0; k < 8; k++ {
				v := derive(s, stream, k)
				if v <= 0 || seen[v] {
					t.Fatalf("derive(%d, %s, %d) = %d: not positive or repeated", s, stream, k, v)
				}
				seen[v] = true
			}
		}
	}
}

func TestMetricsRejectNonFinite(t *testing.T) {
	m := newMetrics()
	m.set("op_p50_s", 0.5)
	if m.err != nil {
		t.Fatal(m.err)
	}
	m.set("op_p90_s", math.NaN())
	if m.err == nil {
		t.Error("a NaN metric did not fail the run")
	}
	m = newMetrics()
	m.set("no_such_metric", 1)
	if m.err == nil {
		t.Error("a metric without a unit did not fail the run")
	}
}

// fakeWorkload cycles over two inputs; its outputs come from a table, so a
// test can make an op disagree with an earlier op on the same input.
type fakeWorkload struct {
	out map[int]exact // by op index; missing entries repeat the input's first
}

func (f *fakeWorkload) setup(context.Context) error { return nil }
func (f *fakeWorkload) cycle() int                  { return 2 }
func (f *fakeWorkload) layers(*metrics)             {}
func (f *fakeWorkload) close()                      {}

func (f *fakeWorkload) op(_ context.Context, i int, _ bool) (func() (exact, error), error) {
	ex, ok := f.out[i]
	if !ok {
		ex = f.out[i%2]
	}
	return func() (exact, error) { return ex, nil }, nil
}

func TestPhaseRunsWholeCyclesAndRepeatsOutputs(t *testing.T) {
	w := &fakeWorkload{out: map[int]exact{0: {bits: 10, testTime: 1.5}, 1: {bits: 20, testTime: 2.5}}}
	var p phase
	p.run(context.Background(), w, 0, 3, false)
	if p.attempted != 4 || p.failed != 0 || len(p.lat) != 4 {
		t.Fatalf("attempted %d, failed %d, timed %d; want 4 whole-cycle ops", p.attempted, p.failed, len(p.lat))
	}
	if bits, tt := p.exactMeans(); bits != 15 || tt != 2 {
		t.Errorf("exactMeans = %v, %v; want 15, 2", bits, tt)
	}

	w = &fakeWorkload{out: map[int]exact{0: {bits: 10}, 1: {bits: 20}, 2: {bits: 11}}}
	p = phase{}
	p.run(context.Background(), w, 0, 4, true)
	// Op 2 gives 11 bits for input 0, which gave 10 before: both its paired
	// runs fail.
	if p.attempted != 8 || p.failed != 2 {
		t.Errorf("attempted %d, failed %d; want 8 and 2", p.attempted, p.failed)
	}
}
