// Misrsymbolic demonstrates the X-canceling MISR machinery of the paper's
// Figures 2 and 3: scan slices with unknown values are compacted into a
// symbolic MISR, each signature bit is printed as a linear equation over
// the injected symbols, Gaussian elimination finds the X-free signature
// combinations, and a corrupted response is shown to change an X-free
// parity (detection) while a re-resolved X never does (tolerance).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"xhybrid/internal/gf2"
	"xhybrid/internal/logic"
	"xhybrid/internal/misr"
	"xhybrid/internal/scan"
	"xhybrid/internal/xcancel"
)

func main() {
	// A 6-input MISR compacting 3 shift cycles of 6 chains (18 cells), with
	// 4 unknown captures — the Figure 2 setting.
	cfg := misr.MustStandard(6)
	sym := misr.MustNewSymbolic(cfg, 8)

	values := logic.MustParseVector("x10011 0x1010 11x01x")
	fmt.Println("scan cells (3 cycles x 6 chains):", values)
	nextO, nextX := 0, 0
	for cycle := 0; cycle < 3; cycle++ {
		in := values[cycle*6 : cycle*6+6]
		labels := make([]string, 6)
		for stage, v := range in {
			if v == logic.X {
				nextX++
				labels[stage] = fmt.Sprintf("X%d", nextX)
			} else {
				nextO++
				labels[stage] = fmt.Sprintf("O%d", nextO)
			}
		}
		sym.ClockVector(in, func(stage int) string { return labels[stage] })
	}

	fmt.Println("\nsymbolic signature (Figure 2 style):")
	for i := 0; i < cfg.Size; i++ {
		fmt.Println(" ", sym.Equation(i))
	}

	xSyms := sym.SymbolsByPrefix("X")
	dep := sym.MatrixOf(xSyms)
	fmt.Println("\nX-dependence matrix (rows M1..M6, columns X1..X4):")
	fmt.Println(dep)
	sels := gf2.NullCombinations(dep)
	fmt.Printf("\nGaussian elimination: rank %d -> %d X-free combinations (m-q needs q<=%d)\n",
		gf2.Rank(dep), len(sels), len(sels))
	for _, sel := range sels {
		parity, _ := sym.Combine(sel)
		fmt.Printf("  select %v -> X-free parity %d\n", sel, parity)
	}

	// End-to-end with the session controller: golden vs faulty vs
	// re-resolved X, over randomized responses.
	fmt.Println("\nsession controller demo (8-bit MISR, q=2):")
	ccfg := xcancel.Config{MISR: misr.MustStandard(8), Q: 2}
	geom := scan.MustGeometry(8, 16)
	golden := randomResponses(geom, 4, 0.05, 11)
	res, err := xcancel.RunResponses(ccfg, golden)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d X's -> %d halts, %d control bits, normalized time %.3f\n",
		res.TotalX, len(res.Halts), res.ControlBits, res.NormalizedTime())

	// Corrupt the first known capture in place, rerun, and restore it.
	p, cell := firstKnown(golden)
	v := golden.At(p, cell)
	golden.Set(p, cell, logic.Not(v))
	res2, err := xcancel.RunResponses(ccfg, golden)
	golden.Set(p, cell, v)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  corrupted known bit detected: %v\n", signaturesDiffer(res, res2))
}

func randomResponses(g scan.Geometry, patterns int, xProb float64, seed int64) *scan.PackedResponses {
	r := rand.New(rand.NewSource(seed))
	s := scan.NewPackedResponses(g, patterns)
	for p := 0; p < patterns; p++ {
		for c := 0; c < g.Chains; c++ {
			for t := 0; t < g.ChainLen; t++ {
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

// firstKnown returns the first pattern and cell, in pattern then cell
// order, that captures a known value.
func firstKnown(s *scan.PackedResponses) (p, cell int) {
	for p = 0; p < s.Patterns(); p++ {
		for cell = 0; cell < s.Geom.Cells(); cell++ {
			if s.At(p, cell) != logic.X {
				return p, cell
			}
		}
	}
	log.Fatal("no known capture")
	return 0, 0
}

func signaturesDiffer(a, b xcancel.Result) bool {
	if len(a.Halts) != len(b.Halts) {
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
