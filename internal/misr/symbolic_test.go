package misr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"xhybrid/internal/gf2"
	"xhybrid/internal/logic"
)

// TestSymbolicMatchesConcrete is the central soundness property: for any
// input sequence containing X's, substituting any Boolean assignment for the
// X symbols into the symbolic state must reproduce the concrete MISR run on
// the substituted inputs.
func TestSymbolicMatchesConcrete(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := 4 + r.Intn(20)
		cfg := MustStandard(size)
		cycles := 1 + r.Intn(40)

		sym := MustNewSymbolic(cfg, 8)
		type xin struct{ cycle, stage int }
		var xs []xin
		inputs := make([]logic.Vector, cycles)
		for c := 0; c < cycles; c++ {
			in := make(logic.Vector, size)
			for i := range in {
				switch r.Intn(4) {
				case 0:
					in[i] = logic.X
					xs = append(xs, xin{c, i})
				case 1:
					in[i] = logic.One
				default:
					in[i] = logic.Zero
				}
			}
			inputs[c] = in
			sym.ClockVector(in, nil)
		}
		if sym.NumSymbols() != len(xs) {
			return false
		}
		// Try several random assignments.
		for trial := 0; trial < 4; trial++ {
			assign := gf2.NewVec(sym.NumSymbols())
			for i := 0; i < assign.Len(); i++ {
				if r.Intn(2) == 1 {
					assign.Set(i)
				}
			}
			// Concrete run with substituted values. Symbols were allocated
			// in scan order (cycle-major, then stage), matching xs order.
			conc := MustNew(cfg)
			k := 0
			for c := 0; c < cycles; c++ {
				var word uint64
				for i, v := range inputs[c] {
					switch v {
					case logic.One:
						word |= 1 << uint(i)
					case logic.X:
						if assign.Get(k) {
							word |= 1 << uint(i)
						}
						k++
					}
				}
				conc.Clock(word)
			}
			// Evaluate the symbolic state under the assignment.
			var got uint64
			for i := 0; i < size; i++ {
				bit := int(sym.Known() >> uint(i) & 1)
				sel := gf2.NewVec(size)
				sel.Set(i)
				_, deps := sym.Combine(sel)
				// Truncate deps to symbol count for the dot product.
				d := gf2.NewVec(sym.NumSymbols())
				deps.ForEach(func(b int) {
					if b < d.Len() {
						d.Set(b)
					}
				})
				bit ^= d.Dot(assign)
				got |= uint64(bit) << uint(i)
			}
			if got != conc.State() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestXFreeCombinationsCancel: combinations from NullCombinations of the
// dependence matrix must have empty symbol dependence, and their parity must
// match the concrete MISR under any X assignment.
func TestXFreeCombinationsCancel(t *testing.T) {
	cfg := MustStandard(10)
	r := rand.New(rand.NewSource(11))
	sym := MustNewSymbolic(cfg, 8)
	conc0 := MustNew(cfg)
	cycles := 25
	type loc struct{ cycle, stage int }
	var xlocs []loc
	words := make([]uint64, cycles)
	for c := 0; c < cycles; c++ {
		in := make(logic.Vector, 10)
		for i := range in {
			switch r.Intn(6) {
			case 0:
				if len(xlocs) < 6 { // keep #X < size so X-free rows exist
					in[i] = logic.X
					xlocs = append(xlocs, loc{c, i})
					continue
				}
				in[i] = logic.Zero
			case 1:
				in[i] = logic.One
				words[c] |= 1 << uint(i)
			default:
				in[i] = logic.Zero
			}
		}
		sym.ClockVector(in, nil)
	}
	dep := sym.Matrix()
	sels := gf2.NullCombinations(dep)
	if len(sels) < 10-len(xlocs) {
		t.Fatalf("too few X-free combinations: %d", len(sels))
	}
	// For every assignment of X values, the concrete signature's selected
	// parities must equal the symbolic known parities.
	for trial := 0; trial < 8; trial++ {
		conc := *conc0
		k := 0
		for c := 0; c < cycles; c++ {
			w := words[c]
			for _, l := range xlocs {
				if l.cycle == c && r.Intn(2) == 1 {
					w |= 1 << uint(l.stage)
				}
			}
			_ = k
			conc.Clock(w)
		}
		state := conc.State()
		for _, sel := range sels {
			parity, deps := sym.Combine(sel)
			if !deps.IsZero() {
				t.Fatal("X-free combination has symbol dependence")
			}
			var concParity int
			sel.ForEach(func(i int) { concParity ^= int(state >> uint(i) & 1) })
			if concParity != parity {
				t.Fatalf("X-free parity mismatch: concrete %d symbolic %d", concParity, parity)
			}
		}
	}
}

func TestEquationRendering(t *testing.T) {
	cfg := Config{Size: 4, Poly: 0x9}
	s := MustNewSymbolic(cfg, 4)
	in := logic.Vector{logic.One, logic.X, logic.Zero, logic.Zero}
	s.ClockVector(in, func(stage int) string { return fmt.Sprintf("X%d", stage) })
	eq0 := s.Equation(0)
	if !strings.Contains(eq0, "M1") || !strings.Contains(eq0, "1") {
		t.Fatalf("Equation(0) = %q", eq0)
	}
	eq1 := s.Equation(1)
	if !strings.Contains(eq1, "X1") {
		t.Fatalf("Equation(1) = %q, want X1 term", eq1)
	}
	// An untouched bit renders as zero.
	if got := s.Equation(3); got != "M4 = 0" {
		t.Fatalf("Equation(3) = %q", got)
	}
}

func TestSymbolGrowth(t *testing.T) {
	s := MustNewSymbolic(MustStandard(6), 2)
	for i := 0; i < 40; i++ {
		in := make(logic.Vector, 6)
		for j := range in {
			in[j] = logic.Zero
		}
		in[i%6] = logic.X
		s.ClockVector(in, nil)
	}
	if s.NumSymbols() != 40 {
		t.Fatalf("NumSymbols = %d, want 40", s.NumSymbols())
	}
	m := s.Matrix()
	if m.Cols() != 40 || m.Rows() != 6 {
		t.Fatalf("Matrix shape %dx%d", m.Rows(), m.Cols())
	}
}

func TestSymbolsByPrefixAndLabels(t *testing.T) {
	s := MustNewSymbolic(MustStandard(4), 4)
	a := s.NewSymbol("O1")
	b := s.NewSymbol("X1")
	c := s.NewSymbol("O2")
	os := s.SymbolsByPrefix("O")
	if len(os) != 2 || os[0] != a || os[1] != c {
		t.Fatalf("SymbolsByPrefix(O) = %v", os)
	}
	if s.Label(b) != "X1" {
		t.Fatalf("Label = %q", s.Label(b))
	}
	sub := s.MatrixOf(os)
	if sub.Cols() != 2 || sub.Rows() != 4 {
		t.Fatalf("MatrixOf shape %dx%d", sub.Rows(), sub.Cols())
	}
}

func TestResetClearsState(t *testing.T) {
	s := MustNewSymbolic(MustStandard(8), 4)
	in := make(logic.Vector, 8)
	for j := range in {
		in[j] = logic.Zero
	}
	in[0] = logic.One
	in[3] = logic.X
	s.ClockVector(in, nil)
	if s.Known() == 0 || s.NumSymbols() != 1 {
		t.Fatalf("known %#x with %d symbols, want a known part and one symbol", s.Known(), s.NumSymbols())
	}
	s.Reset()
	if s.Known() != 0 || s.Cycles() != 0 || s.NumSymbols() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestSymbolicKnownMatchesConcreteWithoutX(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := MustStandard(8)
		s := MustNewSymbolic(cfg, 4)
		c := MustNew(cfg)
		for i := 0; i < 30; i++ {
			w := r.Uint64() & 0xFF
			s.Clock(w, nil)
			c.Clock(w)
		}
		return s.Known() == c.State()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestClockWordMatchesClock: the packed clock equals allocating one symbol
// per X stage in ascending stage order and injecting them through Clock, so
// its dependence columns, known state and default labels match; a known bit
// under an X is ignored.
func TestClockWordMatchesClock(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, size := range []int{4, 13, 32, 64} {
		cfg := MustStandard(size)
		ref := MustNewSymbolic(cfg, 0)
		word := MustNewSymbolic(cfg, 0)
		for c := 0; c < 50; c++ {
			var known, xs uint64
			syms := make([]int, size)
			for i := range syms {
				syms[i] = -1
				switch r.Intn(5) {
				case 0:
					xs |= 1 << uint(i)
					known |= uint64(r.Intn(2)) << uint(i)
					syms[i] = ref.NewSymbol("")
				case 1, 2:
					known |= 1 << uint(i)
				}
			}
			ref.Clock(known&^xs, syms)
			word.ClockWord(known, xs)
		}
		if ref.Known() != word.Known() || !ref.Matrix().Equal(word.Matrix()) {
			t.Fatalf("m=%d: packed clock diverged from Clock", size)
		}
		for i := 0; i < size; i++ {
			if ref.Equation(i) != word.Equation(i) {
				t.Fatalf("m=%d: Equation(%d) %q vs %q", size, i, ref.Equation(i), word.Equation(i))
			}
		}
	}
}

// TestClockWordAllocatesNothing: once the column slice has grown to a
// session's size, clocking and resetting allocate nothing.
func TestClockWordAllocatesNothing(t *testing.T) {
	s := MustNewSymbolic(MustStandard(32), 64)
	session := func() {
		for c := 0; c < 40; c++ {
			s.ClockWord(uint64(c)*0x9E3779B9&0xFFFFFFFF, 1<<uint(c%32))
		}
		s.Reset()
	}
	session()
	if n := testing.AllocsPerRun(20, session); n != 0 {
		t.Fatalf("a 40-cycle session allocates %.0f times", n)
	}
}
