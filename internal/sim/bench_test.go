package sim

import (
	"math/rand"
	"testing"

	"xhybrid/internal/logic"
	"xhybrid/internal/netlist"
)

func benchSetup(b *testing.B, cells int) (*netlist.Circuit, logic.Vector, logic.Vector) {
	b.Helper()
	c, err := netlist.Generate(netlist.GenConfig{
		Name: "bench", ScanCells: cells, PIs: 16, XClusters: cells / 32, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	return c, randomVec(r, len(c.ScanCells), 0), randomVec(r, len(c.PIs), 0)
}

func BenchmarkScalarCapture512(b *testing.B) {
	c, load, pis := benchSetup(b, 512)
	s := New(c)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Capture(load, pis, NoFault); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelCapture512x64(b *testing.B) {
	c, _, _ := benchSetup(b, 512)
	r := rand.New(rand.NewSource(3))
	loads := make([]logic.Vector, 64)
	pis := make([]logic.Vector, 64)
	for k := range loads {
		loads[k] = randomVec(r, len(c.ScanCells), 0)
		pis[k] = randomVec(r, len(c.PIs), 0)
	}
	s := NewParallel(c)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Capture(loads, pis); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelCapture4096x64 is the CI-gated simulate-stage benchmark:
// one 64-pattern block on the flow-mid circuit shape (4,096 scan cells, 8
// PIs, 96 X clusters) as the flow's simulate stage runs it — pack the
// stimuli into lane words, evaluate the gates, gather the block's capture
// words — with no byte unpack. The bench-regress CI job fails a >20% median
// regression against the merge base.
func BenchmarkParallelCapture4096x64(b *testing.B) {
	c, err := netlist.Generate(netlist.GenConfig{
		Name: "bench", ScanCells: 4096, PIs: 8, XClusters: 96, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	loads := make([]logic.Vector, 64)
	pis := make([]logic.Vector, 64)
	for k := range loads {
		loads[k] = randomVec(r, len(c.ScanCells), 0)
		pis[k] = randomVec(r, len(c.PIs), 0)
	}
	one := make([]uint64, len(c.ScanCells))
	x := make([]uint64, len(c.ScanCells))
	s := NewParallel(c)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk, err := s.CaptureBlock(loads, pis)
		if err != nil {
			b.Fatal(err)
		}
		blk.CaptureWords(one, x)
	}
}
