package flow

import (
	"context"
	"strings"
	"testing"

	"xhybrid/internal/core"
	"xhybrid/internal/gf2"
	"xhybrid/internal/misr"
	"xhybrid/internal/scan"
	"xhybrid/internal/tester"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
	"xhybrid/internal/xmask"
)

// buildSetup simulates a generated circuit and returns everything the flow
// needs: geometry, packed responses and the derived X-map.
func buildSetup(t *testing.T) (scan.Geometry, *scan.PackedResponses, *xmap.XMap) {
	t.Helper()
	xb, err := BuildXMap(context.Background(), Spec{
		Name: "flowtest", Cells: 128, Chains: 16, XClusters: 4, XFanout: 5,
		CircuitSeed: 21, StimSeed: 17, Patterns: 80, MISRSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if xb.XMap.TotalX() == 0 {
		t.Fatal("setup produced no X's")
	}
	return xb.Geom, xb.Packed, xb.XMap
}

func params(geom scan.Geometry) core.Params {
	return core.Params{
		Geom:   geom,
		Cancel: xcancel.Config{MISR: misr.MustStandard(8), Q: 2},
	}
}

func TestBuildProgram(t *testing.T) {
	geom, _, m := buildSetup(t)
	prog, err := Build(m, params(geom), tester.Config{Channels: 8, OverlapMaskLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.PatternOrder) != m.Patterns() {
		t.Fatalf("order covers %d of %d patterns", len(prog.PatternOrder), m.Patterns())
	}
	// Every pattern exactly once.
	seen := make(map[int]bool)
	for _, p := range prog.PatternOrder {
		if seen[p] {
			t.Fatalf("pattern %d applied twice", p)
		}
		seen[p] = true
	}
	// Partition-major order: one mask load per partition.
	if prog.Schedule.MaskLoads != len(prog.Partitions) {
		t.Fatalf("MaskLoads = %d, want %d (one per partition)", prog.Schedule.MaskLoads, len(prog.Partitions))
	}
	if prog.Schedule.Normalized() < 1 {
		t.Fatal("normalized time below 1")
	}
}

func TestVerifyPacked(t *testing.T) {
	geom, set, m := buildSetup(t)
	prog, err := Build(m, params(geom), tester.Config{Channels: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyPacked(prog, set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PatternsApplied != set.Patterns() {
		t.Fatalf("applied %d of %d patterns", rep.PatternsApplied, set.Patterns())
	}
	// The fault-coverage guarantee measured on hardware models: no
	// observable capture masked.
	if rep.ObservableMasked != 0 {
		t.Fatalf("masks destroyed %d observable captures", rep.ObservableMasked)
	}
	// Mask-stage effect matches the planning accounting exactly.
	if rep.MaskedX != prog.Accounting.MaskedX {
		t.Fatalf("MaskedX = %d, accounting says %d", rep.MaskedX, prog.Accounting.MaskedX)
	}
	// Compaction can only fold X's together, never create them.
	if rep.ResidualX > prog.Accounting.ResidualX {
		t.Fatalf("residual %d exceeds accounting %d", rep.ResidualX, prog.Accounting.ResidualX)
	}
	if rep.Halts == 0 || rep.Signatures == 0 {
		t.Fatal("no canceling activity despite residual X's")
	}
	if rep.ControlBits != rep.Halts*8*2 {
		t.Fatalf("ControlBits = %d, want halts*m*q", rep.ControlBits)
	}
	if rep.NormalizedTime < 1 {
		t.Fatal("normalized time below 1")
	}
	// Halt count bounded by the closed form on the measured residual.
	if rep.Halts > xcancel.Halts(rep.ResidualX, 8, 2) {
		t.Fatalf("halts %d exceed bound %d", rep.Halts, xcancel.Halts(rep.ResidualX, 8, 2))
	}
}

// TestReplayVerdict feeds the replay verdict a valid program, then four
// programs each tampered to break exactly one clause; every tampered case
// must fail with its own clause's message.
func TestReplayVerdict(t *testing.T) {
	geom, set, m := buildSetup(t)
	base, err := Build(m, params(geom), tester.Config{Channels: 8})
	if err != nil {
		t.Fatal(err)
	}
	good, err := VerifyPacked(base, set)
	if err != nil {
		t.Fatal(err)
	}
	if good.Violation != nil {
		t.Fatalf("valid program failed the verdict: %v", good.Violation)
	}
	if good.ResidualX == 0 || good.Halts == 0 {
		t.Fatal("setup needs residual X's and halts to tamper with")
	}
	// A cell partition 0 captures as a known value in its first pattern.
	first := base.Partitions[0]
	p0 := first.Patterns.Indices()[0]
	_, xw := set.Block(p0 / 64)
	known := -1
	for c, w := range xw {
		if w>>uint(p0%64)&1 == 0 {
			known = c
			break
		}
	}
	if known < 0 {
		t.Fatal("no known capture to mask")
	}
	withAccounting := func(p *Program, edit func(*core.Result)) {
		acct := *p.Accounting
		edit(&acct)
		p.Accounting = &acct
	}
	cases := []struct {
		name   string
		tamper func(*Program)
		want   string
	}{
		{"mask covers a known capture", func(p *Program) {
			part := first
			cells := part.Mask.Cells.Clone()
			cells.Set(known)
			part.Mask = xmask.Mask{Cells: cells}
			p.Partitions = append([]core.Partition{part}, p.Partitions[1:]...)
		}, "observable captures"},
		{"accounted MaskedX off by one", func(p *Program) {
			withAccounting(p, func(a *core.Result) { a.MaskedX++ })
		}, "plan accounts"},
		{"accounted ResidualX below the replayed one", func(p *Program) {
			withAccounting(p, func(a *core.Result) { a.ResidualX = good.ResidualX - 1 })
		}, "exceeds accounted"},
		{"halt budget one short", func(p *Program) {
			p.PlannedHalts = good.Halts - 1
		}, "schedule planned"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := *base
			tc.tamper(&prog)
			rep, err := VerifyPacked(&prog, set)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Violation == nil {
				t.Fatal("tampered program passed the verdict")
			}
			if !strings.Contains(rep.Violation.Error(), tc.want) {
				t.Fatalf("violation %q, want the %q clause", rep.Violation, tc.want)
			}
			// The flow report carries the same clause text.
			var fr Report
			fr.judge(rep.Violation)
			if fr.Preserved || fr.Violation != rep.Violation.Error() {
				t.Fatalf("report verdict preserved=%t violation=%q, want %q", fr.Preserved, fr.Violation, rep.Violation)
			}
		})
	}
}

// TestReportNamesCoverageChange: with a sound replay, a coverage leg that
// lost detections is what the report's violation names.
func TestReportNamesCoverageChange(t *testing.T) {
	fr := Report{Coverage: &Coverage{Faults: 10, BaselineDetected: 7, HybridDetected: 6}}
	fr.judge(nil)
	if fr.Preserved || !strings.Contains(fr.Violation, "fault coverage") {
		t.Fatalf("preserved=%t violation=%q, want a coverage violation", fr.Preserved, fr.Violation)
	}
	fr = Report{Coverage: &Coverage{Faults: 10, BaselineDetected: 7, HybridDetected: 7, Preserved: true}}
	fr.judge(nil)
	if !fr.Preserved || fr.Violation != "" {
		t.Fatalf("sound run: preserved=%t violation=%q", fr.Preserved, fr.Violation)
	}
}

func TestVerifyValidation(t *testing.T) {
	geom, set, m := buildSetup(t)
	prog, err := Build(m, params(geom), tester.Config{Channels: 8})
	if err != nil {
		t.Fatal(err)
	}
	other := scan.MustGeometry(8, 16)
	if _, err := VerifyPacked(prog, scan.NewPackedResponses(other, set.Patterns())); err == nil {
		t.Fatal("accepted mismatched geometry")
	}
	if _, err := VerifyPacked(prog, scan.NewPackedResponses(geom, 1)); err == nil {
		t.Fatal("accepted wrong pattern count")
	}
	// A pattern in two partitions would replay under only one mask.
	overlap := *prog
	overlap.Partitions = append(append([]core.Partition{}, prog.Partitions...), prog.Partitions[0])
	if _, err := VerifyPacked(&overlap, set); err == nil || !strings.Contains(err.Error(), "is in partitions") {
		t.Fatalf("overlapping partitions: err = %v", err)
	}
	// A repeated pattern in the order hides a skipped one.
	repeat := *prog
	repeat.PatternOrder = append([]int{}, prog.PatternOrder...)
	repeat.PatternOrder[1] = repeat.PatternOrder[0]
	if _, err := VerifyPacked(&repeat, set); err == nil || !strings.Contains(err.Error(), "repeats pattern") {
		t.Fatalf("order with a repeated pattern: err = %v", err)
	}
	// A mask of the wrong width cannot be laid over the cells.
	wide := *prog
	wide.Partitions = append([]core.Partition{}, prog.Partitions...)
	wide.Partitions[0].Mask = xmask.Mask{Cells: gf2.NewVec(geom.Cells() + 1)}
	if _, err := VerifyPacked(&wide, set); err == nil || !strings.Contains(err.Error(), "mask width") {
		t.Fatalf("mask wider than the cells: err = %v", err)
	}
}

func TestBuildPropagatesErrors(t *testing.T) {
	geom, _, m := buildSetup(t)
	bad := params(geom)
	bad.Cancel.Q = 0
	if _, err := Build(m, bad, tester.Config{Channels: 8}); err == nil {
		t.Fatal("accepted invalid cancel config")
	}
	if _, err := Build(m, params(geom), tester.Config{Channels: 0}); err == nil {
		t.Fatal("accepted invalid tester config")
	}
}
