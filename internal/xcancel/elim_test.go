package xcancel

import (
	"math/bits"
	"math/rand"
	"testing"

	"xhybrid/internal/gf2"
	"xhybrid/internal/misr"
)

// TestNullSelectionsMatchReference: on random symbolic sessions, from the
// first X to well past saturation (up to 2m symbols, so m = 63 and 64 reach
// two-word rows), the packed elimination returns exactly the selections
// gf2.NullCombinations finds for the session's dependence matrix, in the
// same order.
func TestNullSelectionsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, m := range []int{4, 6, 13, 32, 63, 64} {
		cfg := misr.MustStandard(m)
		full := ^uint64(0) >> uint(64-m)
		var e eliminator
		wide := false
		for session := 0; session < 20; session++ {
			sym := misr.MustNewSymbolic(cfg, 0)
			for sym.NumSymbols() < 2*m {
				var xs uint64
				for k := r.Intn(4); k > 0; k-- {
					xs |= 1 << uint(r.Intn(m))
				}
				sym.ClockWord(r.Uint64()&full, xs)
				if xs == 0 {
					continue
				}
				got := e.nullSelections(sym.Columns(), m)
				want := gf2.NullCombinations(sym.Matrix())
				if len(got) != len(want) {
					t.Fatalf("m=%d, %d symbols: %d selections, reference %d", m, sym.NumSymbols(), len(got), len(want))
				}
				for k, sel := range want {
					var w uint64
					sel.ForEach(func(i int) { w |= 1 << uint(i) })
					if got[k] != w {
						t.Fatalf("m=%d, %d symbols: selection %d = %#x, reference %#x", m, sym.NumSymbols(), k, got[k], w)
					}
					for _, col := range sym.Columns() {
						if bits.OnesCount64(col&got[k])&1 != 0 {
							t.Fatalf("m=%d: selection %#x is not X-free", m, got[k])
						}
					}
				}
				wide = wide || sym.NumSymbols() > 64
			}
		}
		if m >= 63 && !wide {
			t.Fatalf("m=%d never held more than 64 symbols", m)
		}
	}
}
