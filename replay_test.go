package xhybrid

import "testing"

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
