package xmap

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"xhybrid/internal/gf2"
	"xhybrid/internal/logic"
	"xhybrid/internal/scan"
)

func TestAddHasTotal(t *testing.T) {
	m := New(8, 15)
	m.Add(0, 3)
	m.Add(4, 3)
	m.Add(1, 12)
	m.Add(1, 12) // duplicate adds are idempotent
	if !m.Has(0, 3) || !m.Has(4, 3) || !m.Has(1, 12) {
		t.Fatal("Has missing added entries")
	}
	if m.Has(2, 3) || m.Has(0, 0) {
		t.Fatal("Has reports spurious X")
	}
	if m.TotalX() != 3 {
		t.Fatalf("TotalX = %d, want 3", m.TotalX())
	}
	if m.NumXCells() != 2 {
		t.Fatalf("NumXCells = %d, want 2", m.NumXCells())
	}
}

func TestXCellsSortedAndCounts(t *testing.T) {
	m := New(4, 20)
	for _, c := range []int{19, 2, 7, 2} {
		m.Add(0, c)
	}
	m.Add(3, 7)
	cells := m.XCells()
	if len(cells) != 3 || cells[0].Cell != 2 || cells[1].Cell != 7 || cells[2].Cell != 19 {
		t.Fatalf("XCells order wrong: %+v", cells)
	}
	if cells[1].Count() != 2 {
		t.Fatalf("cell 7 count = %d, want 2", cells[1].Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	for _, f := range []func(){
		func() { m.Add(2, 0) },
		func() { m.Add(-1, 0) },
		func() { m.Add(0, 2) },
		func() { m.Add(0, -1) },
		func() { m.TryAdd(2, 0) },
		func() { m.TryAdd(0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPatternViews(t *testing.T) {
	m := New(3, 10)
	m.Add(0, 1)
	m.Add(0, 5)
	m.Add(2, 5)
	counts := m.PatternXCounts()
	if counts[0] != 2 || counts[1] != 0 || counts[2] != 1 {
		t.Fatalf("PatternXCounts = %v", counts)
	}
	cells := m.PatternCells(0)
	if len(cells) != 2 || cells[0] != 1 || cells[1] != 5 {
		t.Fatalf("PatternCells(0) = %v", cells)
	}
	if m.PatternCells(1) != nil {
		t.Fatal("PatternCells(1) should be empty")
	}
}

func TestCellPatterns(t *testing.T) {
	m := New(5, 5)
	m.Add(1, 2)
	m.Add(4, 2)
	bits, ok := m.CellPatterns(2)
	if !ok || bits.PopCount() != 2 || !bits.Get(1) || !bits.Get(4) {
		t.Fatalf("CellPatterns wrong: %v %v", bits, ok)
	}
	if _, ok := m.CellPatterns(0); ok {
		t.Fatal("CellPatterns reported non-X cell")
	}
}

func TestCountIn(t *testing.T) {
	m := New(6, 4)
	for _, p := range []int{0, 2, 4} {
		m.Add(p, 1)
	}
	part := gf2.FromIndices(6, 0, 1, 2)
	if got := m.CountIn(1, part); got != 2 {
		t.Fatalf("CountIn = %d, want 2", got)
	}
	if got := m.CountIn(3, part); got != 0 {
		t.Fatalf("CountIn(non-X cell) = %d, want 0", got)
	}
}

func TestDensity(t *testing.T) {
	m := New(4, 5)
	m.Add(0, 0)
	m.Add(1, 1)
	if d := m.Density(); d != 2.0/20.0 {
		t.Fatalf("Density = %f", d)
	}
	if New(0, 0).Density() != 0 {
		t.Fatal("empty density must be 0")
	}
}

// TestEqual pins the oracle the binio and fuzz round-trip tests compare
// with: equal X sets of equal dimensions are Equal, whatever the insertion
// order; one extra X or a different dimension is not.
func TestEqual(t *testing.T) {
	m := New(3, 3)
	m.Add(0, 0)
	m.Add(2, 1)
	c := New(3, 3)
	c.Add(2, 1)
	c.Add(0, 0)
	if !m.Equal(c) {
		t.Fatal("equal X sets not Equal")
	}
	c.Add(1, 1)
	if m.Equal(c) {
		t.Fatal("Equal missed an extra X")
	}
	if m.Equal(New(3, 4)) || m.Equal(New(4, 3)) {
		t.Fatal("Equal ignores dimensions")
	}
}

// Property: TotalX equals the sum of per-pattern counts, and per-cell counts.
func TestCountConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		np, nc := 1+r.Intn(20), 1+r.Intn(30)
		m := New(np, nc)
		n := r.Intn(100)
		for i := 0; i < n; i++ {
			m.Add(r.Intn(np), r.Intn(nc))
		}
		total := m.TotalX()
		sumP := 0
		for _, c := range m.PatternXCounts() {
			sumP += c
		}
		sumC := 0
		for _, c := range m.XCells() {
			sumC += c.Count()
		}
		return total == sumP && total == sumC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestLazySortInterleaved hammers the lazy reindex: sorted reads
// interleaved with out-of-order Adds must always see ascending order and
// a valid slot map, including resorting again after a read already
// restored order once.
func TestLazySortInterleaved(t *testing.T) {
	m := New(4, 100)
	checkSorted := func() {
		t.Helper()
		cells := m.XCells()
		for i := 1; i < len(cells); i++ {
			if cells[i-1].Cell >= cells[i].Cell {
				t.Fatalf("XCells not strictly ascending at %d: %+v", i, cells)
			}
		}
		for _, c := range cells {
			if !m.Has(0, c.Cell) {
				t.Fatalf("slot map stale for cell %d", c.Cell)
			}
		}
	}
	for round, batch := range [][]int{{90, 50, 10}, {5, 95, 45}, {44, 46, 4}} {
		for _, c := range batch {
			m.Add(0, c)
		}
		checkSorted()
		if got := m.PatternCells(0); len(got) != 3*(round+1) {
			t.Fatalf("round %d: PatternCells = %v", round, got)
		}
	}
	if m.NumXCells() != 9 || m.TotalX() != 9 {
		t.Fatalf("NumXCells = %d TotalX = %d, want 9, 9", m.NumXCells(), m.TotalX())
	}
}

// TryAdd reports whether each X is new, builds the same map as Add, and
// never sorts: a descending build stays unsorted until the first sorted
// read.
func TestTryAdd(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	m, ref := New(70, 50), New(70, 50)
	seen := map[[2]int]bool{}
	for i := 0; i < 600; i++ {
		p, cell := r.Intn(70), 49-r.Intn(50)
		key := [2]int{p, cell}
		if got := m.TryAdd(p, cell); got == seen[key] {
			t.Fatalf("TryAdd(%d, %d) = %v, want %v", p, cell, got, !seen[key])
		}
		seen[key] = true
		ref.Add(p, cell)
	}
	if !m.unsorted.Load() {
		t.Fatal("TryAdd sorted the map (or the build never went out of order)")
	}
	if !m.Equal(ref) || m.TotalX() != len(seen) {
		t.Fatalf("TryAdd map differs from the Add map (TotalX %d, want %d)", m.TotalX(), len(seen))
	}
}

// Property: insertion order does not matter.
func TestInsertionOrderIrrelevant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		np, nc := 1+r.Intn(10), 1+r.Intn(20)
		type pc struct{ p, c int }
		var adds []pc
		n := r.Intn(60)
		for i := 0; i < n; i++ {
			adds = append(adds, pc{r.Intn(np), r.Intn(nc)})
		}
		a := New(np, nc)
		for _, e := range adds {
			a.Add(e.p, e.c)
		}
		b := New(np, nc)
		perm := r.Perm(len(adds))
		for _, i := range perm {
			b.Add(adds[i].p, adds[i].c)
		}
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// benchmarkAddCells loads n distinct cells through Add in the order given
// by cellAt and forces the one deferred sort with an XCells read.
func benchmarkAddCells(b *testing.B, n int, cellAt func(c int) int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := New(1, n)
		for c := 0; c < n; c++ {
			m.Add(0, cellAt(c))
		}
		if cells := m.XCells(); cells[0].Cell != 0 || cells[n-1].Cell != n-1 {
			b.Fatal("map not sorted after load")
		}
	}
}

// BenchmarkAddDescending is the regression benchmark for the insertCell
// O(n^2): loading cells in descending order made every insert shift the
// whole suffix and rebuild its slot entries, so 10x the cells cost ~100x
// the time. With the lazy sort the load is O(n) plus one O(n log n) sort,
// and ns/op grows near-linearly with n across the sub-benchmarks.
func BenchmarkAddDescending(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchmarkAddCells(b, n, func(c int) int { return n - 1 - c })
		})
	}
}

// BenchmarkAddAscending is the already-sorted baseline (never triggers a
// sort); descending should track it to within the cost of one sort.
func BenchmarkAddAscending(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchmarkAddCells(b, n, func(c int) int { return c })
		})
	}
}

// SetCellPatterns must be indistinguishable from per-X Add accumulation,
// keep the slot map valid, and reject misuse.
func TestSetCellPatterns(t *testing.T) {
	byAdd := New(8, 12)
	byBulk := New(8, 12)
	install := map[int][]int{3: {1, 5, 7}, 0: {0}, 11: {2, 3, 4}}
	for cell, ps := range install {
		v := gf2.NewVec(8)
		for _, p := range ps {
			byAdd.Add(p, cell)
			v.Set(p)
		}
		byBulk.SetCellPatterns(cell, v)
	}
	if !byAdd.Equal(byBulk) {
		t.Fatal("bulk install diverged from per-X Add")
	}
	for cell, ps := range install {
		for _, p := range ps {
			if !byBulk.Has(p, cell) {
				t.Fatalf("missing X at p=%d cell=%d", p, cell)
			}
		}
	}
	for name, fn := range map[string]func(){
		"cell out of range":  func() { byBulk.SetCellPatterns(12, gf2.NewVec(8)) },
		"width mismatch":     func() { byBulk.SetCellPatterns(5, gf2.NewVec(9)) },
		"cell already there": func() { byBulk.SetCellPatterns(3, gf2.NewVec(8)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestFromPackedMatchesFromResponses: the X-map read from a packed set's X
// words equals the one built value by value with Add from the same
// responses, canonical encoding included, for pattern counts around the
// 64-pattern block edges and X densities from none to dense.
func TestFromPackedMatchesFromResponses(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := scan.MustGeometry(5, 13)
	for _, n := range []int{1, 63, 64, 65, 129} {
		for _, xProb := range []float64{0, 0.02, 0.5} {
			packed := scan.NewPackedResponses(g, n)
			want := New(n, g.Cells())
			for p := 0; p < n; p++ {
				for c := 0; c < g.Cells(); c++ {
					v := logic.V(r.Intn(2))
					if r.Float64() < xProb {
						v = logic.X
						want.Add(p, c)
					}
					packed.Set(p, c, v)
				}
			}
			got := FromPacked(packed)
			if !got.Equal(want) || got.TotalX() != want.TotalX() {
				t.Fatalf("n=%d xProb=%g: packed map (%d X's) differs from the per-value map (%d X's)", n, xProb, got.TotalX(), want.TotalX())
			}
			var a, b bytes.Buffer
			if err := WriteBinary(&a, got, g.Chains, g.ChainLen); err != nil {
				t.Fatal(err)
			}
			if err := WriteBinary(&b, want, g.Chains, g.ChainLen); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("n=%d xProb=%g: encodings differ", n, xProb)
			}
		}
	}
}
