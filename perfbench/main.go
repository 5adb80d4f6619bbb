// Command perfbench is the repository benchmark. It runs one of three
// closed-loop workloads against the public entry points of the partitioning
// engine (plan-cktb4), the circuit flow (flow-mid) and the serving layer
// (serve-mixed), checks every output, and prints the metrics BENCHMARK.json
// names as the last line of standard output:
//
//	bash perfbench/run.sh --workload plan-cktb4 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics of the named
// workload. With --trace 1 it carries the per-layer metrics: the run then
// takes a traced pass over every workload, since each layer is exercised by
// one of them, and pairs every traced op with an untraced op on the same
// input to measure the tracing overhead. README.md in this directory
// describes the workloads, the metrics and which layer moves which metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"time"
)

// workloadRunner is one benchmark workload.
type workloadRunner interface {
	// setup builds the inputs and runs one untimed warm-up op per input
	// class, recording the reference outputs the checks compare against.
	setup(ctx context.Context) error
	// cycle is the number of distinct inputs the ops cycle over; a run
	// completes whole cycles, so per-op means of the exact outputs depend
	// on the seed alone.
	cycle() int
	// op runs the i-th op, which is timed, and returns its untimed check,
	// which yields the op's exact model outputs. A traced op records its
	// per-layer measurements.
	op(ctx context.Context, i int, traced bool) (func() (exact, error), error)
	// layers adds the per-layer metrics of the traced ops run so far.
	layers(out *metrics)
	close()
}

// exact is an op's paper-model outputs, which never depend on the host.
type exact struct {
	bits     int     // Section 4 control bits
	testTime float64 // normalized test time
}

// workloads lists every workload in the order the traced run visits them.
var workloads = []struct {
	name string
	make func(seed int64) workloadRunner
}{
	{"plan-cktb4", newPlanWorkload},
	{"flow-mid", newFlowWorkload},
	{"serve-mixed", newServeWorkload},
}

// lookup returns the named workload's constructor, or nil.
func lookup(name string) func(seed int64) workloadRunner {
	for _, w := range workloads {
		if w.name == name {
			return w.make
		}
	}
	return nil
}

const (
	// minOps puts at least ten samples beyond the reported p90.
	minOps = 100
	// setupRuns is how often an end-to-end run sets up; setup_s is the
	// median.
	setupRuns = 3
	// maxTimed caps a timed phase, whatever minOps asks, so that a much
	// slower build still finishes a run well within its time limit.
	maxTimed = 120 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload: plan-cktb4, flow-mid or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := flag.Float64("seconds", 25, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	commit := flag.String("commit", "unknown", "commit being measured, recorded with the results")
	flag.Parse()
	if lookup(*name) == nil || (*trace != 0 && *trace != 1) || *secs <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload plan-cktb4|flow-mid|serve-mixed, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	env := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": *commit, "workload": *name, "seed": *seed, "workers": 1, "trace": *trace,
	}
	var res *result
	var err error
	if *trace == 0 {
		res, err = endToEnd(*name, *seed, time.Duration(*secs*float64(time.Second)), env)
	} else {
		res, err = traced(*name, *seed, time.Duration(*secs*float64(time.Second)), env)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"env": env}); err != nil {
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's named measurements. The first value that is not
// a finite number, or has no unit, is kept as an error that fails the run.
type metrics struct {
	vals map[string]metric
	err  error
}

func newMetrics() *metrics { return &metrics{vals: map[string]metric{}} }

// units gives every metric's unit; a metric not listed here is a bug.
var units = map[string]string{
	"op_p50_s": "s", "op_p90_s": "s", "ops_per_s": "1/s", "cpu_s_per_op": "s",
	"setup_s": "s", "peak_rss_mb": "MB", "total_bits": "bits", "test_time_norm": "ratio",

	"xmap.decode_s": "s", "core.partition_s": "s", "core.partition_w1_s": "s",
	"core.partition_w2_s": "s", "core.worker_speedup": "ratio",
	"core.splits_scored": "count", "core.maskedx_recomputes": "count",
	"correlation.cells_counted": "count", "core.state_hit_ratio": "ratio",
	"core.groups_hit_ratio": "ratio", "core.rounds_accepted_ratio": "ratio",
	"pool.dispatch_ratio": "ratio",
	"flow.generate_s":     "s", "flow.atpg_s": "s", "flow.simulate_s": "s", "flow.extract_s": "s",
	"flow.partition_s": "s", "flow.replay_s": "s", "flow.faultsim_s": "s",
	"flow.op_s": "s", "flow.unattributed_s": "s",
	"replay.cycles": "count", "replay.halts": "count", "replay.signatures": "count",
	"replay.halt_budget_use": "ratio", "replay.us_per_cycle": "us",
	"faultsim.gates_evaluated": "count", "faultsim.ns_per_gate": "ns",
	"server.hit_p50_s": "s", "server.miss_p50_s": "s", "server.decode_s": "s",
	"server.other_s": "s", "server.compute_s": "s", "server.cache_hit_ratio": "ratio",
	"host.steal_frac": "ratio", "trace.overhead_frac": "ratio",
}

func (m *metrics) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		m.fail(fmt.Errorf("metric %q has no unit", name))
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		m.fail(fmt.Errorf("metric %s is %v", name, v))
		return
	}
	m.vals[name] = metric{Value: v, Unit: unit}
}

func (m *metrics) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// phase is the raw outcome of one closed-loop timed phase.
type phase struct {
	attempted, failed int
	lat               []float64 // wall seconds of each checked op (the traced op of each pair)
	base              []float64 // paired phases: the untraced op of each pair
	wall, cpu         float64   // wall and user+sys CPU seconds inside timed ops
	steal             float64   // host steal share over the phase
	// outputs holds the exact outputs of each input of the cycle, as its
	// first op produced them; later ops on that input must repeat them.
	outputs []*exact
}

// run drives w in a closed loop until the phase has lasted d and completed
// at least min ops, always finishing a whole input cycle. Each op is timed
// alone; its check runs outside the timing and a failed check counts the op
// as failed. With paired set, every op index runs twice on the same input,
// untraced then traced.
func (p *phase) run(ctx context.Context, w workloadRunner, d time.Duration, min int, paired bool) {
	p.outputs = make([]*exact, w.cycle())
	runtime.GC()
	cpu0 := readCPUTimes()
	start := time.Now()
	for i := 0; ; i++ {
		if i%w.cycle() == 0 {
			elapsed := time.Since(start)
			if (elapsed >= d && i >= min) || elapsed >= maxTimed {
				break
			}
		}
		if paired {
			if lat, ok := p.one(ctx, w, i, false); ok {
				p.base = append(p.base, lat)
			}
		}
		if lat, ok := p.one(ctx, w, i, paired); ok {
			p.lat = append(p.lat, lat)
		}
	}
	p.steal = stealFrac(cpu0, readCPUTimes())
}

// one runs and checks a single op, returning its latency and whether it
// succeeded.
func (p *phase) one(ctx context.Context, w workloadRunner, i int, traced bool) (float64, bool) {
	p.attempted++
	c0, t0 := processCPU(), time.Now()
	check, err := w.op(ctx, i, traced)
	lat := time.Since(t0).Seconds()
	p.cpu += processCPU() - c0
	p.wall += lat
	var ex exact
	if err == nil {
		ex, err = check()
	}
	if k := i % len(p.outputs); err == nil {
		if p.outputs[k] == nil {
			p.outputs[k] = &ex
		} else if *p.outputs[k] != ex {
			err = fmt.Errorf("model outputs %+v, an earlier op on this input gave %+v", ex, *p.outputs[k])
		}
	}
	if err != nil {
		p.failed++
		fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
		return 0, false
	}
	return lat, true
}

// exactMeans returns the mean control bits and normalized test time per op.
// Every op repeats its input's outputs and a phase runs whole cycles, so
// the mean over one cycle is the mean over all ops, and it is the same
// number in every run of a seed.
func (p *phase) exactMeans() (bits, testTime float64) {
	for _, ex := range p.outputs {
		if ex == nil {
			return math.NaN(), math.NaN()
		}
		bits += float64(ex.bits)
		testTime += ex.testTime
	}
	n := float64(len(p.outputs))
	return bits / n, testTime / n
}

// endToEnd sets the workload up setupRuns times, then runs one untraced
// timed phase and reports the end-to-end metrics.
func endToEnd(name string, seed int64, d time.Duration, env map[string]any) (*result, error) {
	ctx := context.Background()
	var w workloadRunner
	var setups []float64
	for r := 0; r < setupRuns; r++ {
		if w != nil {
			w.close()
		}
		w = lookup(name)(seed)
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	var p phase
	p.run(ctx, w, d, minOps, false)
	n := float64(len(p.lat))
	tail := tailSamples(len(p.lat), 0.9)
	if tail < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: op_p90_s rests on %d samples beyond it, fewer than 10\n", tail)
	}
	env["ops"] = len(p.lat)
	env["p90_tail_samples"] = tail
	env["fail_frac"] = float64(p.failed) / float64(p.attempted)
	env["host_steal_frac"] = p.steal
	env["setup_runs_s"] = setups

	m := newMetrics()
	m.set("op_p50_s", quantile(p.lat, 0.5))
	m.set("op_p90_s", quantile(p.lat, 0.9))
	m.set("ops_per_s", n/p.wall)
	m.set("cpu_s_per_op", p.cpu/n)
	m.set("setup_s", quantile(setups, 0.5))
	m.set("peak_rss_mb", peakRSSMB())
	bits, testTime := p.exactMeans()
	m.set("total_bits", bits)
	m.set("test_time_norm", testTime)
	if m.err != nil {
		return nil, m.err
	}
	return &result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: m.vals}, nil
}

// traced runs a paired traced phase of every workload, each for a third of
// d, and reports the per-layer metrics. trace.overhead_frac is the named
// workload's.
func traced(name string, seed int64, d time.Duration, env map[string]any) (*result, error) {
	ctx := context.Background()
	m := newMetrics()
	res := &result{Metrics: m.vals}
	cpu0 := readCPUTimes()
	ops := map[string]int{}
	for _, wl := range workloads {
		w := wl.make(seed)
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		var p phase
		p.run(ctx, w, d/time.Duration(len(workloads)), 2*w.cycle(), true)
		w.layers(m)
		w.close()
		res.Attempted += p.attempted
		res.Failed += p.failed
		ops[wl.name] = len(p.lat)
		if wl.name == name {
			m.set("trace.overhead_frac", quantile(p.lat, 0.5)/quantile(p.base, 0.5)-1)
		}
	}
	m.set("host.steal_frac", stealFrac(cpu0, readCPUTimes()))
	if m.err != nil {
		return nil, m.err
	}
	env["traced_ops"] = ops
	res.Correct = res.Failed == 0
	return res, nil
}

// derive maps the workload seed, a stream name and an input index to one
// positive generator seed, so inputs differ across streams and indices and
// depend on nothing else.
func derive(seed int64, stream string, k int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, k)
	return int64(h.Sum64()>>1) | 1
}
