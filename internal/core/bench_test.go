package core

import (
	"context"
	"fmt"
	"testing"

	"xhybrid/internal/gf2"
	"xhybrid/internal/misr"
	"xhybrid/internal/obs"
	"xhybrid/internal/workload"
	"xhybrid/internal/xcancel"
)

func BenchmarkRunPaperExample(b *testing.B) {
	m := fig4()
	p := fig4Params(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunCKTBQuarter(b *testing.B) {
	prof := workload.Scaled(workload.CKTB(), 4)
	m, err := prof.Generate()
	if err != nil {
		b.Fatal(err)
	}
	p := Params{Geom: prof.Geometry(), Cancel: xcancel.Config{MISR: misr.MustStandard(32), Q: 7}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunWorkers sweeps the worker count on the half-scale CKT-B
// workload: the serial (workers=1) vs parallel trajectory of the
// partitioning engine. Results are identical across the sweep; only the
// wall clock moves.
func BenchmarkRunWorkers(b *testing.B) {
	prof := workload.Scaled(workload.CKTB(), 2)
	m, err := prof.Generate()
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p := Params{
				Geom:    prof.Geometry(),
				Cancel:  xcancel.Config{MISR: misr.MustStandard(32), Q: 7},
				Workers: w,
			}
			var bits int
			for i := 0; i < b.N; i++ {
				res, err := Run(m, p)
				if err != nil {
					b.Fatal(err)
				}
				bits = res.TotalBits
			}
			b.ReportMetric(float64(bits), "total-bits")
		})
	}
}

// BenchmarkRunStats pins the cost of the observability layer on the
// quarter-scale CKT-B run. The "off" case (Obs nil, the default) must track
// BenchmarkRunCKTBQuarter to within the noise floor — every counter touch
// behind a nil receiver is a single branch — while "on" shows the real
// price of live recording.
func BenchmarkRunStats(b *testing.B) {
	prof := workload.Scaled(workload.CKTB(), 4)
	m, err := prof.Generate()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"off", "on"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			p := Params{Geom: prof.Geometry(), Cancel: xcancel.Config{MISR: misr.MustStandard(32), Q: 7}}
			if mode == "on" {
				p.Obs = obs.New()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(m, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunGreedy is the CI regression gate for the incremental scoring
// engine: the greedy strategy is the one that scores every candidate split
// of every live partition per round, so it is the workload most sensitive
// to the delta pricing, cross-round memoization, and partition-local cell
// indexes. The benchstat job in ci.yml compares this benchmark between the
// PR head and its merge base and fails on a >20% slowdown.
func BenchmarkRunGreedy(b *testing.B) {
	prof := workload.Scaled(workload.CKTB(), 4)
	m, err := prof.Generate()
	if err != nil {
		b.Fatal(err)
	}
	p := Params{
		Geom:     prof.Geometry(),
		Cancel:   xcancel.Config{MISR: misr.MustStandard(32), Q: 7},
		Strategy: StrategyGreedyCost,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunGreedyWorkers8 is BenchmarkRunGreedy with the hot loops
// fanned out over 8 workers — the second CI regression gate, covering the
// striped state interner and the once-guarded memos that the serial run
// never contends on. Kept a separate top-level benchmark (not a sub-bench
// of BenchmarkRunGreedy) so the benchstat comparison of either gate never
// mixes samples.
func BenchmarkRunGreedyWorkers8(b *testing.B) {
	prof := workload.Scaled(workload.CKTB(), 4)
	m, err := prof.Generate()
	if err != nil {
		b.Fatal(err)
	}
	p := Params{
		Geom:     prof.Geometry(),
		Cancel:   xcancel.Config{MISR: misr.MustStandard(32), Q: 7},
		Strategy: StrategyGreedyCost,
		Workers:  8,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaskedXIn(b *testing.B) {
	prof := workload.Scaled(workload.CKTB(), 4)
	m, err := prof.Generate()
	if err != nil {
		b.Fatal(err)
	}
	// newEvaluator (not a bare literal) so the pool is real: the bare
	// struct used to panic on the nil pool the moment maskedXIn fanned out.
	e := newEvaluator(context.Background(), m, Params{
		Geom: prof.Geometry(), Cancel: xcancel.Config{MISR: misr.MustStandard(32), Q: 7}, Workers: 1,
	})
	defer e.close()
	all := gf2.NewVec(m.Patterns())
	all.SetAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.maskedXIn(all)
	}
}
