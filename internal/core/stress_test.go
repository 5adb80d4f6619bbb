package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"xhybrid/internal/correlation"
	"xhybrid/internal/gf2"
	"xhybrid/internal/misr"
	"xhybrid/internal/obs"
	"xhybrid/internal/workload"
	"xhybrid/internal/xcancel"
)

// TestSharedMemosConsistentUnderConcurrency hammers the memos concurrent
// callers share — each partition's once-guarded column index, equal-count
// groups and greedy candidate list — from 16 goroutines over one evaluator
// at Workers: 4, so the grouping fan-out nests in the pool while other
// goroutines race the same Onces. Every state starts unindexed; half the
// callers narrow its index from the parent's, half from the all-columns
// list. It then audits each memo against a serial recompute — the index
// against a brute-force one, the candidates against the slot-order
// enumeration, the groups against a fresh full-scan grouping — and each
// Once against its counter: one index build and one grouping per state.
// Run under -race (CI does) this is the engine's concurrency-safety proof.
func TestSharedMemosConsistentUnderConcurrency(t *testing.T) {
	prof := workload.Scaled(workload.CKTB(), 16)
	m, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	params := Params{
		Geom:    prof.Geometry(),
		Cancel:  xcancel.Config{MISR: misr.MustStandard(32), Q: 7},
		Obs:     rec,
		Workers: 4,
	}
	e := newEvaluator(context.Background(), m, params)
	defer e.close()

	patterns := m.Patterns()
	all := gf2.NewVec(patterns)
	all.SetAll()
	root := e.indexedState(all)
	// Shared states with no index yet: split sides of the root, and random
	// pattern sets with no parent at all.
	var states, parents []*partState
	cells := m.XCells()
	for i := 0; i < len(cells) && len(states) < 32; i += 1 + len(cells)/16 {
		xs, rs := e.splitStates(root, cells[i].Cell)
		states = append(states, xs, rs)
		parents = append(parents, root, root)
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 16; i++ {
		v := randVec(r, patterns, 1+i%3)
		states = append(states, &partState{part: v, size: v.PopCount()})
		parents = append(parents, nil)
	}

	const goroutines, limit = 16, 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range states {
				i := (k + g) % len(states)
				var parent *partState
				if g%2 == 0 {
					parent = parents[i]
				}
				states[i].ensureIndex(e, parent)
				states[i].ensureGroups(e)
				states[i].ensureCands(e, limit)
			}
		}(g)
	}
	wg.Wait()

	for i, st := range states {
		what := fmt.Sprintf("state %d (size %d)", i, st.size)
		checkIndex(t, e, st, what)
		idx := st.idx.Load()
		if want := refCands(m, st.part, limit); fmt.Sprint(idx.cands) != fmt.Sprint(want) {
			t.Errorf("%s: candidates %v, slot-order reference %v", what, idx.cands, want)
		}
		if want := correlation.GroupsWithin(m, st.part); !reflect.DeepEqual(idx.groups, want) {
			t.Errorf("%s: groups %v, fresh grouping %v", what, idx.groups, want)
		}
	}
	snap := rec.Snapshot()
	if got, want := snap.CounterValue("core.cellindex.builds"), int64(len(states)+1); got != want {
		t.Errorf("%d index builds, want %d: one per state plus the root", got, want)
	}
	if got := snap.CounterValue("core.groups.cache.misses"); got != int64(len(states)) {
		t.Errorf("%d groupings for %d states", got, len(states))
	}
}

// TestGreedyPlanIdenticalUnderStress pins the engine's determinism at the
// Run level: with the memos once-guarded and the split gains published only
// after each fan-out, a fully parallel greedy run produces a byte-identical
// result to the serial one.
// (TestRunDeterministicAcrossWorkers covers every strategy on small maps;
// this one runs the greedy selector on a scaled industrial profile, where
// candidate scoring actually fans out.)
func TestGreedyPlanIdenticalUnderStress(t *testing.T) {
	prof := workload.Scaled(workload.CKTB(), 16)
	m, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	params := Params{
		Geom:     prof.Geometry(),
		Cancel:   xcancel.Config{MISR: misr.MustStandard(32), Q: 7},
		Strategy: StrategyGreedyCost,
	}
	params.Workers = 1
	serial, err := Run(m, params)
	if err != nil {
		t.Fatal(err)
	}
	params.Workers = 8
	parallel, err := Run(m, params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("workers=8 plan differs from workers=1:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
