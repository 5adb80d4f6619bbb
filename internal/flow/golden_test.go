package flow

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"xhybrid/internal/core"
	"xhybrid/internal/misr"
	"xhybrid/internal/tester"
	"xhybrid/internal/xcancel"
)

// replayGolden is what TestReplayGolden pins of one replay: the canceling
// sessions, the mask and compactor effect, the end-of-test signature and a
// digest of every extracted X-free parity in order.
type replayGolden struct {
	Halts, Signatures, Deficits int
	MaskedX, ResidualX          int
	ControlBits                 int
	NormalizedTime              float64
	FinalSignature              uint64
	// Parities is the sha256 of SignatureParities, one byte per parity.
	Parities string
}

// replayGoldenSpecs span the replay's shapes: the mid recipe, sessions short
// of X-free combinations, an untabulated MISR size with a nonzero final
// signature, 64-bit rows under masks whose halts hold more than 64 symbols,
// a compactor folding 100 chains onto 24 inputs, and q=1 under greedy-cost.
var replayGoldenSpecs = []struct {
	name string
	spec Spec
	want replayGolden
}{
	{"mid", Spec{Cells: 4096, Chains: 64, XClusters: 96, Patterns: 256, CircuitSeed: 1, StimSeed: 1},
		replayGolden{Halts: 907, Signatures: 6349, Deficits: 0, MaskedX: 0, ResidualX: 23275, ControlBits: 203168,
			NormalizedTime: 1.38751220703125, FinalSignature: 0,
			Parities: "ccea2b0e85e3b58b072609a8797eb88a643c7adb5df6a1719432d1bee052c9f7"}},
	{"m16-q5-deficits", Spec{Cells: 1024, Chains: 16, XClusters: 24, Patterns: 128, MISRSize: 16, Q: 5, CircuitSeed: 1, StimSeed: 1},
		replayGolden{Halts: 256, Signatures: 1268, Deficits: 12, MaskedX: 0, ResidualX: 2855, ControlBits: 20480,
			NormalizedTime: 1.15625, FinalSignature: 0,
			Parities: "2b9cdd10c143945fdc072b612e07aaedee315d0738b9cd2d73a80a8479dd5571"}},
	{"m13-q3", Spec{Cells: 1024, Chains: 32, XClusters: 24, Patterns: 128, MISRSize: 13, Q: 3, CircuitSeed: 2, StimSeed: 2},
		replayGolden{Halts: 275, Signatures: 817, Deficits: 8, MaskedX: 0, ResidualX: 2851, ControlBits: 10725,
			NormalizedTime: 1.201416015625, FinalSignature: 0x135d,
			Parities: "fd486cd5dec81c881e45dacf2104b7242b06f40ced99f69af88ba98452dc3210"}},
	{"m64-q7", Spec{Cells: 4096, Chains: 64, XClusters: 96, XFanout: 32, Patterns: 96, MISRSize: 64, Q: 7, CircuitSeed: 3, StimSeed: 3},
		replayGolden{Halts: 847, Signatures: 5929, Deficits: 0, MaskedX: 594, ResidualX: 51715, ControlBits: 379456,
			NormalizedTime: 1.9650065104166667, FinalSignature: 0,
			Parities: "2fd19d5d6e2d168027ee04846c53f8f1b2c20f4c1f53d69712af5a2396473b5e"}},
	{"100-chains-m24-q9", Spec{Cells: 3200, Chains: 100, XClusters: 80, Patterns: 128, MISRSize: 24, Q: 9, CircuitSeed: 4, StimSeed: 4},
		replayGolden{Halts: 578, Signatures: 5180, Deficits: 22, MaskedX: 0, ResidualX: 9319, ControlBits: 124848,
			NormalizedTime: 2.27001953125, FinalSignature: 0,
			Parities: "29275239787a92699f7d8927f71309a21ff8e83acac4f031497562341d9ddd50"}},
	{"q1-greedy-cost", Spec{Cells: 1024, Chains: 32, XClusters: 24, Patterns: 128, MISRSize: 16, Q: 1, Strategy: "greedy-cost", CircuitSeed: 5, StimSeed: 5},
		replayGolden{Halts: 193, Signatures: 193, Deficits: 0, MaskedX: 0, ResidualX: 2940, ControlBits: 3088,
			NormalizedTime: 1.047119140625, FinalSignature: 0,
			Parities: "60a80dd47351754b1a312e61031eab81e439549ea1aa0ddd84b7f03924043268"}},
}

// planOf builds the spec's X-map and plan as RunSpec does, at Workers=1.
func planOf(tb testing.TB, spec Spec) (*Program, *XMapBuild) {
	tb.Helper()
	ctx := context.Background()
	spec.Workers = 1
	xb, err := BuildXMap(ctx, spec)
	if err != nil {
		tb.Fatal(err)
	}
	spec.Normalize()
	strat, err := spec.strategy()
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := BuildCtx(ctx, xb.XMap, core.Params{
		Geom:     xb.Geom,
		Cancel:   xcancel.Config{MISR: misr.MustStandard(spec.MISRSize), Q: spec.Q},
		Strategy: strat,
		Workers:  1,
	}, tester.Config{Channels: spec.MISRSize, OverlapMaskLoad: true})
	if err != nil {
		tb.Fatal(err)
	}
	return prog, xb
}

// replayOf digests the replay of the spec's plan.
func replayOf(t *testing.T, spec Spec) replayGolden {
	t.Helper()
	prog, xb := planOf(t, spec)
	rep, err := VerifyResponses(prog, xb.Responses)
	if err != nil {
		t.Fatal(err)
	}
	parities := make([]byte, len(rep.SignatureParities))
	for i, p := range rep.SignatureParities {
		parities[i] = byte(p)
	}
	sum := sha256.Sum256(parities)
	return replayGolden{
		Halts: rep.Halts, Signatures: rep.Signatures, Deficits: rep.Deficits,
		MaskedX: rep.MaskedX, ResidualX: rep.ResidualX,
		ControlBits:    rep.ControlBits,
		NormalizedTime: rep.NormalizedTime,
		FinalSignature: rep.FinalSignature,
		Parities:       hex.EncodeToString(sum[:]),
	}
}

// TestReplayGolden pins the replay of every replayGoldenSpecs entry to the
// values the cycle-by-cycle symbolic replay produced: a faster replay must
// halt, extract and sign exactly as it did.
func TestReplayGolden(t *testing.T) {
	for _, tc := range replayGoldenSpecs {
		t.Run(tc.name, func(t *testing.T) {
			if got := replayOf(t, tc.spec); got != tc.want {
				t.Fatalf("replay\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
