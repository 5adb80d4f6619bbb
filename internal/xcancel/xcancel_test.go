package xcancel

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"xhybrid/internal/logic"
	"xhybrid/internal/misr"
	"xhybrid/internal/scan"
)

func cfg(m, q int) Config {
	return Config{MISR: misr.MustStandard(m), Q: q}
}

func TestValidate(t *testing.T) {
	if err := cfg(10, 2).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := cfg(10, 0).Validate(); err == nil {
		t.Fatal("accepted q=0")
	}
	if err := cfg(10, 10).Validate(); err == nil {
		t.Fatal("accepted q=m")
	}
}

// The paper's Section 4 worked numbers.
func TestControlBitsPaperNumbers(t *testing.T) {
	// m=10, q=2: 12 leaked X's -> 10*2*12/(10-2) = 30 bits.
	if got := ControlBits(12, 10, 2); got != 30 {
		t.Fatalf("ControlBits(12,10,2) = %d, want 30", got)
	}
	// m=10, q=2: 5 leaked X's -> 12.5 -> 13 (paper total 57.5 -> 58).
	if got := ControlBits(5, 10, 2); got != 13 {
		t.Fatalf("ControlBits(5,10,2) = %d, want 13", got)
	}
	// m=10, q=1: 12 X's -> 13.33 -> 14 (paper total 43.3 -> 44).
	if got := ControlBits(12, 10, 1); got != 14 {
		t.Fatalf("ControlBits(12,10,1) = %d, want 14", got)
	}
	// m=10, q=1: 5 X's -> 5.55 -> 6 (paper total 50.5 -> 51).
	if got := ControlBits(5, 10, 1); got != 6 {
		t.Fatalf("ControlBits(5,10,1) = %d, want 6", got)
	}
	if ControlBits(0, 10, 2) != 0 || Halts(0, 10, 2) != 0 {
		t.Fatal("zero X's must cost nothing")
	}
}

// The Figure 2/3 example: 4 X's in a 6-bit MISR, q=2 -> one halt, 12 bits.
func TestFigure3ControlData(t *testing.T) {
	if got := Halts(4, 6, 2); got != 1 {
		t.Fatalf("Halts = %d, want 1", got)
	}
	if got := ControlBitsPerHaltCeil(4, 6, 2); got != 12 {
		t.Fatalf("control data = %d, want 12 (paper: 2 cycles x 6 bits)", got)
	}
}

func TestHaltsAndBounds(t *testing.T) {
	f := func(tRaw uint16, mRaw, qRaw uint8) bool {
		m := int(mRaw)%30 + 2
		q := int(qRaw)%(m-1) + 1
		totalX := int(tRaw)
		h := Halts(totalX, m, q)
		cb := ControlBits(totalX, m, q)
		cbCeil := ControlBitsPerHaltCeil(totalX, m, q)
		if totalX == 0 {
			return h == 0 && cb == 0 && cbCeil == 0
		}
		// Halt count covers all X's and no more than one per X.
		if h*(m-q) < totalX || (h-1)*(m-q) >= totalX {
			return false
		}
		// Per-halt ceiling dominates the fractional accounting.
		return cbCeil >= cb && cb > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// mustPanic runs fn and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic, got none")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want message containing %q", r, want)
		}
	}()
	fn()
}

// TestAccountingBoundaries pins the q/m edge of every closed-form
// accounting function. Before checkMQ, q = m divided by zero with an
// anonymous runtime panic and q > m silently returned negative halt and
// bit counts.
func TestAccountingBoundaries(t *testing.T) {
	// q = m-1 is the tightest valid configuration: one retired X per halt,
	// so the halt count equals totalX exactly.
	if got := Halts(10, 4, 3); got != 10 {
		t.Fatalf("Halts(10, 4, 3) = %d, want 10", got)
	}
	if got := ControlBits(10, 4, 3); got != 120 {
		t.Fatalf("ControlBits(10, 4, 3) = %d, want 120", got)
	}
	if got := ControlBitsPerHaltCeil(10, 4, 3); got != 120 {
		t.Fatalf("ControlBitsPerHaltCeil(10, 4, 3) = %d, want 120", got)
	}
	if got := NormalizedTestTime(cfg(4, 3), 2, 0.5); got != 4 {
		t.Fatalf("NormalizedTestTime(m=4, q=3) = %f, want 4", got)
	}

	// totalX = 0 is free for ANY m, q — even invalid ones must not panic,
	// because callers legitimately ask for the cost of an X-free partition
	// before validating a speculative configuration.
	for _, mq := range [][2]int{{4, 3}, {4, 4}, {4, 9}, {0, 0}, {-1, 5}} {
		m, q := mq[0], mq[1]
		if got := Halts(0, m, q); got != 0 {
			t.Fatalf("Halts(0, %d, %d) = %d, want 0", m, q, got)
		}
		if got := ControlBits(0, m, q); got != 0 {
			t.Fatalf("ControlBits(0, %d, %d) = %d, want 0", m, q, got)
		}
		if got := ControlBitsPerHaltCeil(0, m, q); got != 0 {
			t.Fatalf("ControlBitsPerHaltCeil(0, %d, %d) = %d, want 0", m, q, got)
		}
	}
	if got := Halts(-5, 4, 4); got != 0 {
		t.Fatalf("Halts(-5, 4, 4) = %d, want 0", got)
	}

	// q = m and beyond must fail loudly with the named precondition, not
	// divide by zero or go negative.
	const want = "need 1 <= q < m"
	mustPanic(t, want, func() { Halts(1, 4, 4) })
	mustPanic(t, want, func() { Halts(1, 4, 5) })
	mustPanic(t, want, func() { ControlBits(1, 4, 4) })
	mustPanic(t, want, func() { ControlBitsPerHaltCeil(1, 4, 5) })
	mustPanic(t, want, func() { Halts(1, 4, 0) })

	// NormalizedTestTime's invalid-q cases need a hand-edited config:
	// cfg() builds through MustStandard, which only checks the MISR size,
	// so an out-of-range Q reaches the accounting guard.
	badQ := cfg(4, 3)
	badQ.Q = 4
	mustPanic(t, want, func() { NormalizedTestTime(badQ, 1, 0) })
	badQ.Q = 9
	mustPanic(t, want, func() { NormalizedTestTime(badQ, 1, 0) })
	badQ.Shadow = true
	if got := NormalizedTestTime(badQ, 1, 0); got != 1 {
		t.Fatalf("shadow variant with invalid q = %f, want 1 (shadow short-circuits)", got)
	}
}

func TestNormalizedTestTimePaperValues(t *testing.T) {
	c := cfg(32, 7)
	cases := []struct {
		chains  int
		density float64
		want    float64
	}{
		{1050, 0.0005, 1.147}, // CKT-A
		{75, 0.0275, 1.5775},  // CKT-B (paper prints 1.58)
		{203, 0.0238, 2.3529}, // CKT-C (paper prints 2.35)
	}
	for _, tc := range cases {
		got := NormalizedTestTime(c, tc.chains, tc.density)
		if got < tc.want-0.01 || got > tc.want+0.01 {
			t.Fatalf("NormalizedTestTime(%d, %f) = %f, want ~%f", tc.chains, tc.density, got, tc.want)
		}
	}
	shadow := c
	shadow.Shadow = true
	if NormalizedTestTime(shadow, 1000, 0.5) != 1 {
		t.Fatal("shadow-register variant must have unit test time")
	}
}

// randomResponses builds a response set with the given X probability,
// drawing pattern by pattern, chain by chain, position by position.
func randomResponses(r *rand.Rand, chains, chainLen, patterns int, xProb float64) *scan.PackedResponses {
	g := scan.MustGeometry(chains, chainLen)
	s := scan.NewPackedResponses(g, patterns)
	for p := 0; p < patterns; p++ {
		for c := 0; c < chains; c++ {
			for t := 0; t < chainLen; t++ {
				switch {
				case r.Float64() < xProb:
					s.Set(p, g.CellIndex(c, t), logic.X)
				case r.Intn(2) == 1:
					s.Set(p, g.CellIndex(c, t), logic.One)
				}
			}
		}
	}
	return s
}

// totalX counts the set's X captures.
func totalX(s *scan.PackedResponses) int {
	n := 0
	for b := 0; b < s.Blocks(); b++ {
		_, x := s.Block(b)
		for _, w := range x {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

func TestCancelerEndToEnd(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	set := randomResponses(r, 10, 20, 6, 0.03)
	res, err := RunResponses(cfg(10, 2), set)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalX != totalX(set) {
		t.Fatalf("TotalX = %d, want %d", res.TotalX, totalX(set))
	}
	if res.ShiftCycles != 6*20 {
		t.Fatalf("ShiftCycles = %d, want 120", res.ShiftCycles)
	}
	if len(res.Halts) == 0 {
		t.Fatal("no halts despite X's")
	}
	if res.ControlBits != len(res.Halts)*10*2 {
		t.Fatalf("ControlBits = %d, want halts*m*q", res.ControlBits)
	}
	if res.HaltCycles != len(res.Halts)*2 {
		t.Fatalf("HaltCycles = %d", res.HaltCycles)
	}
	if nt := res.NormalizedTime(); nt <= 1.0 {
		t.Fatalf("NormalizedTime = %f, want > 1", nt)
	}
	// Every non-deficit halt yields exactly q X-free signatures.
	retired := 0
	for _, h := range res.Halts {
		retired += h.XRetired
		if h.Deficit == 0 && len(h.Signatures) != 2 {
			t.Fatalf("halt has %d signatures, want 2", len(h.Signatures))
		}
	}
	if retired != res.TotalX {
		t.Fatalf("retired %d X's, want %d", retired, res.TotalX)
	}
}

// A single-bit error in an observable (non-X) position is detected when a
// halt signature or the final signature changes. Single-bit errors are the
// adversarial case for X-canceling: an error whose MISR trace lands in a
// session's X-row space is algebraically indistinguishable from an X, so
// the measured rate sits below the 1-2^-q figure quoted for random
// (multi-bit) errors — but it must grow monotonically with q, because each
// extra extracted combination shrinks the unobserved subspace.
func TestErrorDetectionImprovesWithQ(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	set := randomResponses(r, 10, 15, 5, 0.04)
	rate := func(q int) float64 {
		golden, err := RunResponses(cfg(10, q), set)
		if err != nil {
			t.Fatal(err)
		}
		trials, detected := 0, 0
		for ch := 0; ch < set.Geom.Chains; ch++ {
			for pos := 0; pos < set.Geom.ChainLen; pos += 3 {
				for pi := 0; pi < set.Patterns(); pi += 2 {
					cell := set.Geom.CellIndex(ch, pos)
					v := set.At(pi, cell)
					if v == logic.X {
						continue
					}
					set.Set(pi, cell, logic.Not(v))
					res2, err := RunResponses(cfg(10, q), set)
					set.Set(pi, cell, v)
					if err != nil {
						t.Fatal(err)
					}
					if len(res2.Halts) != len(golden.Halts) {
						t.Fatalf("halt schedule changed: %d vs %d", len(res2.Halts), len(golden.Halts))
					}
					trials++
					if signaturesDiffer(golden, res2) {
						detected++
					}
				}
			}
		}
		if trials < 50 {
			t.Fatalf("too few trials: %d", trials)
		}
		return float64(detected) / float64(trials)
	}
	r1, r5, r9 := rate(1), rate(5), rate(9)
	if !(r1 < r5 && r5 < r9) {
		t.Fatalf("detection not monotone in q: %.3f, %.3f, %.3f", r1, r5, r9)
	}
	if r9 < 0.85 {
		t.Fatalf("q=9 detection rate %.3f too low", r9)
	}
	if r1 > 0.5 {
		t.Fatalf("q=1 detection rate %.3f implausibly high", r1)
	}
}

func signaturesDiffer(a, b Result) bool {
	if a.FinalSignature != b.FinalSignature {
		return true
	}
	for i := range a.Halts {
		for j := range a.Halts[i].Signatures {
			if a.Halts[i].Signatures[j].Parity != b.Halts[i].Signatures[j].Parity {
				return true
			}
		}
	}
	return false
}

// An error captured after the last halt must be caught by the end-of-test
// signature: the register is clean (no X symbols pending), so its state is
// a valid X-free signature and a single-bit error always disturbs it
// (the MISR update is nonsingular).
func TestFinalSignatureCatchesTailErrors(t *testing.T) {
	g := scan.MustGeometry(8, 10)
	build := func(flip bool) *scan.PackedResponses {
		// Both patterns capture Zero everywhere but at position 0: pattern
		// 0 carries X's there (forces a halt), pattern 1 is X-free.
		s := scan.NewPackedResponses(g, 2)
		for i := 0; i < 6; i++ {
			s.Set(0, g.CellIndex(i, 0), logic.X)
		}
		for c := 0; c < 8; c++ {
			s.Set(1, g.CellIndex(c, 0), logic.One) // clear the X row with known values
		}
		if flip {
			s.Set(1, g.CellIndex(3, 9), logic.One) // tail error after the last halt
		}
		return s
	}
	golden, err := RunResponses(cfg(8, 2), build(false))
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := RunResponses(cfg(8, 2), build(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(golden.Halts) == 0 {
		t.Fatal("setup produced no halt")
	}
	// Halt signatures are identical (error is after the last halt)…
	for i := range golden.Halts {
		for j := range golden.Halts[i].Signatures {
			if golden.Halts[i].Signatures[j].Parity != faulty.Halts[i].Signatures[j].Parity {
				t.Fatal("halt signature saw a tail error")
			}
		}
	}
	// …but the final signature must differ.
	if golden.FinalSignature == faulty.FinalSignature {
		t.Fatal("final signature missed the tail error")
	}
}

// The register resets at every halt, so the final signature depends only on
// the inputs after the last halt.
func TestRegisterResetsAtHalt(t *testing.T) {
	c1 := MustNewCanceler(cfg(6, 2))
	in := make(logic.Vector, 6)
	for i := range in {
		in[i] = logic.Zero
	}
	inX := make(logic.Vector, 6)
	copy(inX, in)
	inX[0] = logic.X
	inX[1] = logic.X
	inX[2] = logic.X
	inX[3] = logic.X
	// Known activity, then a halt-triggering burst, then nothing.
	known := make(logic.Vector, 6)
	copy(known, in)
	known[5] = logic.One
	if err := c1.Shift(known); err != nil {
		t.Fatal(err)
	}
	if err := c1.Shift(inX); err != nil {
		t.Fatal(err)
	}
	res := c1.Finish()
	if len(res.Halts) != 1 {
		t.Fatalf("halts = %d, want 1", len(res.Halts))
	}
	if res.FinalSignature != 0 {
		t.Fatalf("final signature %x, want 0 (register reset at halt, no inputs after)", res.FinalSignature)
	}
}

// X-only differences (an X resolving differently) must NOT change any
// signature: X's are fully canceled.
func TestXValueIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	g := scan.MustGeometry(8, 12)
	build := func(xAs logic.V) *scan.PackedResponses {
		rr := rand.New(rand.NewSource(77)) // same known values both times
		s := scan.NewPackedResponses(g, 4)
		for p := 0; p < 4; p++ {
			for c := 0; c < 8; c++ {
				for t := 0; t < 12; t++ {
					if rr.Float64() < 0.05 {
						s.Set(p, g.CellIndex(c, t), logic.X)
					} else if rr.Intn(2) == 1 {
						s.Set(p, g.CellIndex(c, t), logic.One)
					}
				}
			}
		}
		return s
	}
	_ = r
	set := build(logic.X)
	res, err := RunResponses(cfg(8, 2), set)
	if err != nil {
		t.Fatal(err)
	}
	// The symbolic run never looked at X "values" at all; verify instead
	// that signatures are reproducible and X-free.
	res2, err := RunResponses(cfg(8, 2), set)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Halts {
		for j := range res.Halts[i].Signatures {
			if res.Halts[i].Signatures[j].Parity != res2.Halts[i].Signatures[j].Parity {
				t.Fatal("signatures not reproducible")
			}
		}
	}
}

func TestDeficitOnXBurst(t *testing.T) {
	c := MustNewCanceler(cfg(6, 2))
	in := make(logic.Vector, 6)
	for i := range in {
		in[i] = logic.X
	}
	if err := c.Shift(in); err != nil {
		t.Fatal(err)
	}
	res := c.Finish()
	if len(res.Halts) != 1 {
		t.Fatalf("halts = %d, want 1", len(res.Halts))
	}
	h := res.Halts[0]
	// 6 X's into a 6-bit MISR after one clock: rank can be up to 6, so a
	// deficit is expected (fewer than q X-free combinations).
	if h.XRetired != 6 {
		t.Fatalf("XRetired = %d, want 6", h.XRetired)
	}
	if len(h.Signatures)+h.Deficit != 2 {
		t.Fatalf("signatures %d + deficit %d != q", len(h.Signatures), h.Deficit)
	}
}

func TestShiftWidthError(t *testing.T) {
	c := MustNewCanceler(cfg(6, 2))
	if err := c.Shift(make(logic.Vector, 5)); err == nil {
		t.Fatal("accepted wrong width")
	}
}

// TestShiftWidthErrorTable checks every off-by-one around the m-wide input
// contract, that errors name both widths, and that a rejected slice leaves
// the canceler untouched (no phantom cycle or X accounting).
func TestShiftWidthErrorTable(t *testing.T) {
	const m = 6
	cases := []struct {
		name  string
		width int
		ok    bool
	}{
		{"empty", 0, false},
		{"one short", m - 1, false},
		{"exact", m, true},
		{"one over", m + 1, false},
		{"double", 2 * m, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := MustNewCanceler(cfg(m, 2))
			err := c.Shift(make(logic.Vector, tc.width))
			if tc.ok {
				if err != nil {
					t.Fatalf("rejected exact width: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted width %d", tc.width)
			}
			for _, want := range []string{fmt.Sprintf("width %d", tc.width), fmt.Sprintf("want %d", m)} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q, want it to mention %q", err, want)
				}
			}
			if res := c.Finish(); res.ShiftCycles != 0 || res.TotalX != 0 {
				t.Fatalf("rejected Shift mutated state: %+v", res)
			}
		})
	}
}

func TestRunResponsesGeometryError(t *testing.T) {
	set := scan.NewPackedResponses(scan.MustGeometry(4, 4), 0)
	if _, err := RunResponses(cfg(6, 2), set); err == nil {
		t.Fatal("accepted chains != m")
	}
}

// TestRunResponsesGeometryTable checks the chain-count/MISR-size match on
// both sides of equality and that mismatch errors name both numbers.
func TestRunResponsesGeometryTable(t *testing.T) {
	const m = 6
	cases := []struct {
		name   string
		chains int
		ok     bool
	}{
		{"one chain", 1, false},
		{"one short", m - 1, false},
		{"exact", m, true},
		{"one over", m + 1, false},
		{"double", 2 * m, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := scan.NewPackedResponses(scan.MustGeometry(tc.chains, 3), 0)
			_, err := RunResponses(cfg(m, 2), set)
			if tc.ok {
				if err != nil {
					t.Fatalf("rejected matching geometry: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted %d chains into a %d-input MISR", tc.chains, m)
			}
			for _, want := range []string{fmt.Sprintf("%d chains", tc.chains), fmt.Sprintf("%d-input", m)} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q, want it to mention %q", err, want)
				}
			}
		})
	}
}

func TestFinishIdempotentWhenClean(t *testing.T) {
	c := MustNewCanceler(cfg(6, 2))
	in := make(logic.Vector, 6) // all zeros
	if err := c.Shift(in); err != nil {
		t.Fatal(err)
	}
	r1 := c.Finish()
	r2 := c.Finish()
	if len(r1.Halts) != 0 || len(r2.Halts) != 0 {
		t.Fatal("spurious halts without X's")
	}
}

// Property: the cycle-level controller never halts more often than the
// closed-form bound ceil(T/(m-q)).
func TestHaltCountBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 6 + r.Intn(10)
		q := 1 + r.Intn(m/2)
		set := randomResponses(r, m, 5+r.Intn(15), 1+r.Intn(5), 0.05*r.Float64())
		res, err := RunResponses(Config{MISR: misr.MustStandard(m), Q: q}, set)
		if err != nil {
			return false
		}
		return len(res.Halts) <= Halts(res.TotalX, m, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
