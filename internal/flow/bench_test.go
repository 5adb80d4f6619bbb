package flow

import "testing"

// BenchmarkVerifyResponses is the CI-gated replay benchmark: the mid
// recipe's plan and packed responses, built untimed at Workers=1, replayed
// as RunSpec replays them (VerifyPacked) through the mask stage, the
// compactor and the X-canceling MISR. The bench-regress CI job fails a >20%
// median regression against the merge base.
func BenchmarkVerifyResponses(b *testing.B) {
	prog, xb := planOf(b, replayGoldenSpecs[0].spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := VerifyPacked(prog, xb.Packed)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Violation != nil {
			b.Fatal(rep.Violation)
		}
	}
}
