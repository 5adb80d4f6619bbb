package xmap

// Regression for the lazy-sort data race: ensureSorted used to mutate
// cells and slot unguarded on first sorted read, so two goroutines
// reading a freshly built out-of-order map raced (caught by -race, and
// capable of serving a reader a half-sorted view). The sort is now
// double-check locked behind an atomic flag. This test only proves its
// point under `go test -race` (CI's race job runs it); without the
// detector it still exercises the first-read stampede.

import (
	"sync"
	"testing"

	"xhybrid/internal/gf2"
)

// descendingMap builds a map whose Adds arrive in descending cell order,
// leaving it unsorted until the first sorted read.
func descendingMap(patterns, cells int) *XMap {
	m := New(patterns, cells)
	for cell := cells - 1; cell >= 0; cell-- {
		for p := 0; p < patterns; p += cell%3 + 1 {
			m.Add(p, cell)
		}
	}
	return m
}

func TestConcurrentReadersAfterUnsortedBuild(t *testing.T) {
	const patterns, cells = 64, 48
	part := gf2.NewVec(patterns)
	for p := 0; p < patterns; p += 2 {
		part.Set(p)
	}

	// Every reader combination races the sort and each other. Multiple
	// iterations restart from a fresh unsorted map so each run hits the
	// first-read stampede again.
	for iter := 0; iter < 20; iter++ {
		m := descendingMap(patterns, cells)
		var wg sync.WaitGroup
		readers := []func(){
			func() {
				xs := m.XCells()
				for i := 1; i < len(xs); i++ {
					if xs[i-1].Cell >= xs[i].Cell {
						t.Errorf("XCells out of order at %d: %d >= %d", i, xs[i-1].Cell, xs[i].Cell)
						return
					}
				}
			},
			func() {
				for cell := 0; cell < cells; cell++ {
					m.Has(0, cell)
				}
			},
			func() {
				for cell := 0; cell < cells; cell++ {
					if ps, ok := m.CellPatterns(cell); ok && ps.PopCount() == 0 {
						t.Errorf("cell %d has an empty pattern set", cell)
						return
					}
				}
			},
			func() { m.PatternCells(1) },
			func() { m.TotalX() },
			func() { m.PatternXCounts() },
			func() {
				for cell := 0; cell < cells; cell++ {
					m.CountIn(cell, part)
				}
			},
		}
		for _, r := range readers {
			for k := 0; k < 2; k++ {
				wg.Add(1)
				go func(f func()) {
					defer wg.Done()
					f()
				}(r)
			}
		}
		wg.Wait()
	}
}

// TestConcurrentReadersSeeConsistentAnswers: the answers under the
// stampede must equal the answers from a map sorted serially.
func TestConcurrentReadersSeeConsistentAnswers(t *testing.T) {
	const patterns, cells = 32, 24
	want := descendingMap(patterns, cells)
	want.ensureSorted()

	m := descendingMap(patterns, cells)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cell := 0; cell < cells; cell++ {
				wp, wok := want.CellPatterns(cell)
				gp, gok := m.CellPatterns(cell)
				if wok != gok || (wok && !wp.Equal(gp)) {
					t.Errorf("cell %d: concurrent CellPatterns diverged", cell)
					return
				}
			}
			if m.TotalX() != want.TotalX() {
				t.Error("concurrent TotalX diverged")
			}
		}()
	}
	wg.Wait()
	if !m.Equal(want) {
		t.Error("map diverged after concurrent reads")
	}
}
