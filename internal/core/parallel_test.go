package core

import (
	"errors"
	"reflect"
	"testing"

	"xhybrid/internal/misr"
	"xhybrid/internal/scan"
	"xhybrid/internal/workload"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
)

// The load-bearing guarantee of the parallel execution layer: Run produces
// byte-identical results (rounds, costs, partitions, masks, accounting) for
// workers=1 and workers=8, across every strategy and several seeds.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	strategies := []Strategy{StrategyPaper, StrategyPaperRandom, StrategyGreedyCost}
	for seed := int64(1); seed <= 4; seed++ {
		m, geom := randMap(seed)
		for _, s := range strategies {
			p := Params{
				Geom:     geom,
				Cancel:   xcancel.Config{MISR: misr.MustStandard(12), Q: 3},
				Strategy: s,
				Seed:     seed,
			}
			p.Workers = 1
			serial, err := Run(m, p)
			if err != nil {
				t.Fatalf("seed %d %v workers=1: %v", seed, s, err)
			}
			for _, workers := range []int{2, 8} {
				p.Workers = workers
				parallel, err := Run(m, p)
				if err != nil {
					t.Fatalf("seed %d %v workers=%d: %v", seed, s, workers, err)
				}
				if !reflect.DeepEqual(serial, parallel) {
					t.Fatalf("seed %d strategy %v: workers=%d result differs from workers=1\nserial:   %+v\nparallel: %+v",
						seed, s, workers, serial, parallel)
				}
			}
		}
	}
}

// Same guarantee on a real synthetic workload (1/8-scale CKT-B) for the
// paper strategy — the configuration the Table 1 pipeline runs.
func TestRunDeterministicOnWorkload(t *testing.T) {
	prof := workload.Scaled(workload.CKTB(), 8)
	m, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Geom: prof.Geometry(), Cancel: xcancel.Config{MISR: misr.MustStandard(32), Q: 7}}
	p.Workers = 1
	serial, err := Run(m, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 8
	parallel, err := Run(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("CKT-B/8 workers=8 result differs from workers=1")
	}
}

func TestSentinelErrors(t *testing.T) {
	m := fig4()
	p := fig4Params(2)
	p.Geom = scan.MustGeometry(4, 3) // 12 cells != 15
	if _, err := Run(m, p); !errors.Is(err, ErrGeometryMismatch) {
		t.Fatalf("Run geometry error = %v, want ErrGeometryMismatch", err)
	}
	if _, err := Evaluate(m, p); !errors.Is(err, ErrGeometryMismatch) {
		t.Fatalf("Evaluate geometry error = %v, want ErrGeometryMismatch", err)
	}
	p = fig4Params(2)
	if _, err := Run(xmap.New(0, 15), p); !errors.Is(err, ErrEmptyPatterns) {
		t.Fatalf("Run empty error = %v, want ErrEmptyPatterns", err)
	}
	// A healthy run reports neither sentinel.
	if _, err := Run(m, p); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeWorkersRejected(t *testing.T) {
	p := fig4Params(2)
	p.Workers = -1
	if _, err := Run(fig4(), p); err == nil {
		t.Fatal("accepted negative Workers")
	}
}
