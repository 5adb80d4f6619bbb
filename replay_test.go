package xhybrid

import (
	"strings"
	"testing"

	"xhybrid/internal/flow"
	"xhybrid/internal/tester"
	"xhybrid/internal/workload"
)

func TestReplayCheckPaperExample(t *testing.T) {
	x := PaperExample()
	// 5 chains, so the MISR must be at most 5 wide.
	stats := NewStats()
	rep, err := ReplayCheck(x, Options{MISRSize: 5, Q: 2, Stats: stats}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("replay verdict: %v", rep.Violation)
	}
	if rep.ObservableMasked != 0 {
		t.Fatalf("masks destroyed %d observable captures", rep.ObservableMasked)
	}
	// ReplayCheck owns the replay span; nothing under it reopens the name.
	if sp, ok := stats.Snapshot().SpanByName("flow.replay"); !ok || sp.Count != 1 {
		t.Fatalf("flow.replay span = %+v (recorded %t), want one", sp, ok)
	}
	if rep.MaskedX == 0 {
		t.Fatal("masks removed nothing")
	}
	if rep.MaskedX+rep.ResidualX > x.TotalX() {
		t.Fatalf("masked %d + residual %d exceed total %d (compaction can only fold)",
			rep.MaskedX, rep.ResidualX, x.TotalX())
	}
	if rep.NormalizedTime < 1 || rep.ScheduleCycles <= 0 {
		t.Fatalf("schedule wrong: %+v", rep)
	}
}

func TestReplayCheckScaledWorkload(t *testing.T) {
	// A small synthetic map through the whole hardware stack (the
	// full-scale replay is minutes of work).
	rows := make([]string, 24)
	for i := range rows {
		r := make([]byte, 64)
		for j := range r {
			r[j] = '0'
		}
		if i%3 == 0 {
			r[7], r[19], r[33] = 'x', 'x', 'x'
		}
		if i%3 == 1 {
			r[40], r[41] = 'x', 'x'
		}
		rows[i] = string(r)
	}
	small, err := FromPatternRows(8, 8, rows)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayCheck(small, Options{MISRSize: 8, Q: 2}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("replay verdict: %v", rep.Violation)
	}
	if rep.Halts == 0 && rep.ResidualX > 0 {
		t.Fatal("residual X's but no canceling halts")
	}
}

func TestReplayCheckRejectsWideMISR(t *testing.T) {
	x := PaperExample() // 5 chains
	if _, err := ReplayCheck(x, Options{}, 1); err == nil {
		t.Fatal("accepted 32-bit MISR on 5 chains")
	}
	if _, err := ReplayCheck(x, Options{MISRSize: 5, Q: 9}, 1); err == nil {
		t.Fatal("accepted q >= m")
	}
}

// TestReplayCheckCarriesDeficits replays a map in which every pattern
// captures X in all 8 chains at one shift cycle, more than the m-q = 6 a
// halt can cancel with q = 2 combinations left over. No split pays for its
// mask, so every burst reaches the MISR, and the report must carry the
// deficits that the flow replay of the same program counts.
func TestReplayCheckCarriesDeficits(t *testing.T) {
	rows := make([]string, 16)
	for p := range rows {
		r := []byte(strings.Repeat("0", 64))
		for c := 0; c < 8; c++ {
			r[c*8+p%8] = 'x'
		}
		rows[p] = string(r)
	}
	x, err := FromPatternRows(8, 8, rows)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{MISRSize: 8, Q: 2}
	rep, err := ReplayCheck(x, opt, 5)
	if err != nil {
		t.Fatal(err)
	}
	params, err := opt.params(x.geom)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := flow.Build(x.m, params, tester.Config{Channels: 8, OverlapMaskLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	set, err := workload.ResponsesFromXMap(x.m, x.geom, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := flow.VerifyPacked(prog, set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaskedX != 0 {
		t.Fatalf("masks removed %d X's; the bursts must reach the MISR", rep.MaskedX)
	}
	if rep.Deficits == 0 || rep.Deficits != want.Deficits {
		t.Fatalf("ReplayCheck reports %d deficits, flow replay %d; want the same, above 0", rep.Deficits, want.Deficits)
	}
	if rep.Halts != want.Halts || rep.ResidualX != want.ResidualX {
		t.Fatalf("ReplayCheck %+v, flow replay %+v", rep, want)
	}
	if rep.Violation != nil {
		t.Fatalf("replay verdict: %v", rep.Violation)
	}
}
