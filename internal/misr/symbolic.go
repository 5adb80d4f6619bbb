package misr

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"xhybrid/internal/gf2"
	"xhybrid/internal/logic"
)

// Symbolic is a symbolic MISR: every signature bit is maintained as
//
//	M_i = known_i XOR (XOR of the tracked symbols M_i depends on)
//
// where symbols are allocated for unknown (X) inputs — or, if desired, for
// any input — and dependences propagate linearly through the MISR update.
// This reproduces the paper's Figure 2 symbolic simulation and provides the
// X-dependence matrix consumed by Gaussian elimination (Figure 3).
//
// The register is linear, so the dependence of the m signature bits on one
// symbol is an m-bit column that clocks through the same companion step as
// the known part of the state. Symbolic keeps exactly that: one uint64
// column per symbol, and a clock steps every column in place.
type Symbolic struct {
	cfg Config
	// known is the contribution of known (constant) inputs to each bit.
	known uint64
	// cols[s] has bit i set iff signature bit i depends on symbol s.
	cols []uint64
	// labels[s] names symbol s (e.g. "X1", "O3") for printed equations; a
	// missing or empty entry renders as the default "X<s+1>".
	labels []string
	cycles int
}

// NewSymbolic returns a symbolic MISR with initial capacity for the given
// number of symbols (the column slice grows on demand).
func NewSymbolic(cfg Config, symbolCap int) (*Symbolic, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if symbolCap < 1 {
		symbolCap = 16
	}
	return &Symbolic{cfg: cfg, cols: make([]uint64, 0, symbolCap)}, nil
}

// MustNewSymbolic is NewSymbolic that panics on error.
func MustNewSymbolic(cfg Config, symbolCap int) *Symbolic {
	s, err := NewSymbolic(cfg, symbolCap)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the MISR configuration.
func (s *Symbolic) Config() Config { return s.cfg }

// NumSymbols returns the number of symbols allocated so far.
func (s *Symbolic) NumSymbols() int { return len(s.cols) }

// Cycles returns the number of clocks applied since the last reset.
func (s *Symbolic) Cycles() int { return s.cycles }

// NewSymbol allocates a fresh symbol with the given label and returns its id.
func (s *Symbolic) NewSymbol(label string) int {
	id := len(s.cols)
	s.cols = append(s.cols, 0)
	s.setLabel(id, label)
	return id
}

// step advances the symbolic state one clock with zero input.
func (s *Symbolic) step() {
	s.known = s.cfg.step(s.known)
	for j, c := range s.cols {
		s.cols[j] = s.cfg.step(c)
	}
	s.cycles++
}

// Clock advances one cycle. inKnown is the packed word of known-input
// contributions; inSyms maps each stage to a symbol id to inject, or -1.
// A stage may receive both a known bit and a symbol (e.g. a compactor XOR
// of a known chain and an X chain).
func (s *Symbolic) Clock(inKnown uint64, inSyms []int) {
	if inKnown&^s.cfg.mask() != 0 {
		panic(fmt.Sprintf("misr: input %#x exceeds %d-bit MISR", inKnown, s.cfg.Size))
	}
	if inSyms != nil && len(inSyms) != s.cfg.Size {
		panic(fmt.Sprintf("misr: symbol input width %d, want %d", len(inSyms), s.cfg.Size))
	}
	s.step()
	s.known ^= inKnown
	for i, sym := range inSyms {
		if sym < 0 {
			continue
		}
		if sym >= len(s.cols) {
			panic(fmt.Sprintf("misr: unknown symbol id %d", sym))
		}
		s.cols[sym] ^= 1 << uint(i)
	}
}

// ClockWord advances one cycle with a packed three-valued input: bit i of
// xs marks stage i as X, and bit i of known is stage i's known value (it is
// ignored where xs is set). Each X stage gets a fresh symbol in ascending
// stage order, as ClockVector allocates them, so the new ids run upward
// from NumSymbols() as it was before the call. Bits at or above the MISR
// size must be zero.
func (s *Symbolic) ClockWord(known, xs uint64) {
	if (known|xs)&^s.cfg.mask() != 0 {
		panic(fmt.Sprintf("misr: input %#x/%#x exceeds %d-bit MISR", known, xs, s.cfg.Size))
	}
	s.step()
	s.known ^= known &^ xs
	for ; xs != 0; xs &= xs - 1 {
		s.cols = append(s.cols, xs&-xs)
	}
}

// ClockVector advances one cycle with a three-valued input vector; each X
// input allocates a fresh symbol labeled by labelFn (or "X<n>" if nil).
// It returns the symbol ids allocated this cycle (per stage, -1 if none).
func (s *Symbolic) ClockVector(in logic.Vector, labelFn func(stage int) string) []int {
	if len(in) != s.cfg.Size {
		panic(fmt.Sprintf("misr: input width %d, want %d", len(in), s.cfg.Size))
	}
	var known, xs uint64
	for i, v := range in {
		switch v {
		case logic.One:
			known |= 1 << uint(i)
		case logic.X:
			xs |= 1 << uint(i)
		}
	}
	next := len(s.cols)
	s.ClockWord(known, xs)
	syms := make([]int, s.cfg.Size)
	for i := range syms {
		syms[i] = -1
		if xs>>uint(i)&1 == 0 {
			continue
		}
		syms[i] = next
		if labelFn != nil {
			s.setLabel(next, labelFn(i))
		}
		next++
	}
	return syms
}

// setLabel names symbol id; an empty label keeps the default.
func (s *Symbolic) setLabel(id int, label string) {
	if label == "" {
		return
	}
	for len(s.labels) <= id {
		s.labels = append(s.labels, "")
	}
	s.labels[id] = label
}

// Known returns the known-input contribution to the signature.
func (s *Symbolic) Known() uint64 { return s.known }

// Columns returns the dependence column of every symbol: bit i of
// Columns()[j] is set iff signature bit i depends on symbol j. The slice is
// the register's own storage, valid until the next clock or reset.
func (s *Symbolic) Columns() []uint64 { return s.cols }

// DependsOn reports whether signature bit i depends on symbol sym.
func (s *Symbolic) DependsOn(i, sym int) bool { return s.cols[sym]>>uint(i)&1 == 1 }

// Matrix returns the m x numSymbols dependence matrix: row i has bit j set
// iff signature bit i depends on symbol j. Rows are copies.
func (s *Symbolic) Matrix() gf2.Mat {
	m := gf2.NewMat(s.cfg.Size, len(s.cols))
	for j, c := range s.cols {
		for ; c != 0; c &= c - 1 {
			m.Set(bits.TrailingZeros64(c), j)
		}
	}
	return m
}

// MatrixOf returns the dependence matrix restricted to the given symbol ids
// (columns in the given order). Used to isolate X symbols from O symbols.
func (s *Symbolic) MatrixOf(symbols []int) gf2.Mat {
	m := gf2.NewMat(s.cfg.Size, len(symbols))
	for j, sym := range symbols {
		if sym >= len(s.cols) {
			continue
		}
		for c := s.cols[sym]; c != 0; c &= c - 1 {
			m.Set(bits.TrailingZeros64(c), j)
		}
	}
	return m
}

// SymbolsByPrefix returns the ids of symbols whose label starts with the
// prefix, in allocation order. Convenient for separating "X" from "O".
func (s *Symbolic) SymbolsByPrefix(prefix string) []int {
	var out []int
	for id := range s.cols {
		if strings.HasPrefix(s.Label(id), prefix) {
			out = append(out, id)
		}
	}
	return out
}

// Label returns the label of symbol id.
func (s *Symbolic) Label(id int) string {
	if id < len(s.labels) && s.labels[id] != "" {
		return s.labels[id]
	}
	return "X" + strconv.Itoa(id+1)
}

// Equation renders signature bit i as a human-readable linear equation in
// the style of the paper's Figure 2, e.g. "M2 = X1 + O2 + X2 + X3 + O9".
// Symbols appear sorted by label; a nonzero known contribution appends "+ 1".
func (s *Symbolic) Equation(i int) string {
	var terms []string
	for j, c := range s.cols {
		if c>>uint(i)&1 == 1 {
			terms = append(terms, s.Label(j))
		}
	}
	sort.Slice(terms, func(a, b int) bool { return symbolLess(terms[a], terms[b]) })
	if s.known>>uint(i)&1 == 1 {
		terms = append(terms, "1")
	}
	if len(terms) == 0 {
		terms = []string{"0"}
	}
	return fmt.Sprintf("M%d = %s", i+1, strings.Join(terms, " + "))
}

// symbolLess orders labels like O3 < O12 and O-symbols before X-symbols of
// the paper's convention by comparing (alpha prefix, numeric suffix).
func symbolLess(a, b string) bool {
	pa, na := splitLabel(a)
	pb, nb := splitLabel(b)
	if pa != pb {
		return pa < pb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

func splitLabel(s string) (prefix string, num int) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	n := 0
	for _, r := range s[i:] {
		n = n*10 + int(r-'0')
	}
	return s[:i], n
}

// Combine returns the known parity and combined symbol dependence of the
// GF(2) combination of signature bits selected by sel (length Size); deps
// has one bit per symbol.
func (s *Symbolic) Combine(sel gf2.Vec) (parity int, deps gf2.Vec) {
	if sel.Len() != s.cfg.Size {
		panic("misr: selection width mismatch")
	}
	var w uint64
	sel.ForEach(func(i int) { w |= 1 << uint(i) })
	deps = gf2.NewVec(len(s.cols))
	for j, c := range s.cols {
		if bits.OnesCount64(c&w)&1 == 1 {
			deps.Set(j)
		}
	}
	return bits.OnesCount64(s.known&w) & 1, deps
}

// Reset clears state, symbols and cycle count.
func (s *Symbolic) Reset() {
	s.known = 0
	s.cols = s.cols[:0]
	s.labels = s.labels[:0]
	s.cycles = 0
}
