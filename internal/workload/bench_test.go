package workload

import "testing"

func BenchmarkGenerateCKTBQuarter(b *testing.B) {
	p := Scaled(CKTB(), 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateCustomDense(b *testing.B) {
	p := Profile{
		Name: "dense", Chains: 32, ChainLen: 128, Patterns: 512,
		XDensity: 0.05, StructuredFraction: 0.5,
		Clusters: 4, ClusterPatterns: 64,
		BackgroundCellFraction: 0.1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}
