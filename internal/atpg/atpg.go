// Package atpg generates test stimuli for the scan substrate: an LFSR-based
// pseudo-random pattern generator (the usual logic-BIST / test-compression
// source) with optional per-bit weighting, producing the scan-load and
// primary-input vectors the simulator consumes.
//
// In the end-to-end flow (docs/FLOW.md) this is the second stage: the
// stimuli it generates for a netlist.Generate circuit are what
// internal/sim evaluates to produce the responses the real X-map is
// extracted from. GenerateStimuli is fully determined by (patterns, scan
// width, PI width, seed) — same arguments, same vectors, on any host —
// which is what lets a flow job resume after a crash by regenerating its
// stimuli instead of spooling them. The LFSR maps the all-zero lockup seed
// to 1, so every seed (including 0) yields a maximal-length sequence.
//
// This package stands in for the commercial ATPG of the paper's setup; see
// DESIGN.md §3 (substitutions) for why pseudo-random stimuli preserve the
// behaviour the paper measures.
package atpg

import (
	"fmt"

	"xhybrid/internal/logic"
	"xhybrid/internal/misr"
)

// LFSR is a Galois-form linear feedback shift register used as a
// pseudo-random bit source.
type LFSR struct {
	cfg   misr.Config
	state uint64
}

// NewLFSR returns an LFSR of the given size seeded with seed (the all-zero
// lockup state is replaced by 1).
func NewLFSR(size int, seed uint64) (*LFSR, error) {
	cfg, err := misr.Standard(size)
	if err != nil {
		return nil, err
	}
	l := &LFSR{cfg: cfg}
	l.Seed(seed)
	return l, nil
}

// MustNewLFSR is NewLFSR that panics on error.
func MustNewLFSR(size int, seed uint64) *LFSR {
	l, err := NewLFSR(size, seed)
	if err != nil {
		panic(err)
	}
	return l
}

// Seed resets the LFSR state, mapping 0 to 1 to avoid lockup.
func (l *LFSR) Seed(seed uint64) {
	seed &= l.mask()
	if seed == 0 {
		seed = 1
	}
	l.state = seed
}

func (l *LFSR) mask() uint64 {
	if l.cfg.Size == 64 {
		return ^uint64(0)
	}
	return (1 << uint(l.cfg.Size)) - 1
}

// State returns the current register contents.
func (l *LFSR) State() uint64 { return l.state }

// NextBit clocks once and returns the new low-order bit.
func (l *LFSR) NextBit() int {
	fb := (l.state >> uint(l.cfg.Size-1)) & 1
	l.state = (l.state << 1) & l.mask()
	if fb == 1 {
		l.state ^= l.cfg.Poly
	}
	return int(l.state & 1)
}

// Generator produces pseudo-random scan-test stimuli.
type Generator struct {
	lfsr *LFSR
	// WeightOneNum/Den set the probability of generating a 1 per bit as a
	// rational WeightOneNum/WeightOneDen (default 1/2).
	weightNum, weightDen int
}

// NewGenerator returns a pattern generator over a 32-bit LFSR.
func NewGenerator(seed uint64) *Generator {
	return &Generator{lfsr: MustNewLFSR(32, seed), weightNum: 1, weightDen: 2}
}

// SetWeight sets the per-bit probability of a 1 to num/den.
func (g *Generator) SetWeight(num, den int) error {
	if den <= 0 || num < 0 || num > den {
		return fmt.Errorf("atpg: invalid weight %d/%d", num, den)
	}
	g.weightNum, g.weightDen = num, den
	return nil
}

// bit draws one weighted bit.
func (g *Generator) bit() logic.V {
	if g.weightDen == 2 && g.weightNum == 1 {
		return logic.FromBit(g.lfsr.NextBit())
	}
	// Draw log2ceil(den) bits and compare; rejection-free approximation via
	// a 16-bit draw.
	var v uint32
	for i := 0; i < 16; i++ {
		v = v<<1 | uint32(g.lfsr.NextBit())
	}
	if int(v%uint32(g.weightDen)) < g.weightNum {
		return logic.One
	}
	return logic.Zero
}

// Pattern returns one fully specified pseudo-random vector of width n.
func (g *Generator) Pattern(n int) logic.Vector {
	v := make(logic.Vector, n)
	i := 0
	if g.weightDen == 2 && g.weightNum == 1 {
		// Eight unweighted bits at a time: see byteStep.
		for ; i+8 <= n; i += 8 {
			s := g.lfsr.state
			top := s >> 24
			for k := 0; k < 8; k++ {
				v[i+k] = logic.V(top >> uint(7-k) & 1)
			}
			g.lfsr.state = (s<<8)&0xFFFFFFFF ^ byteStep[top]
		}
	}
	for ; i < n; i++ {
		v[i] = g.bit()
	}
	return v
}

// byteStep[b] is the Generator LFSR's feedback over eight clocks from a
// state whose top byte is b. Each NextBit returns the bit that leaves the
// top of the register, and the feedback polynomial (x^32 + x^7 + x^6 +
// x^2 + 1) reaches only bits 0-14 within eight clocks, so eight bits come
// out as the state's top byte, most significant first, and the state
// after them is (s<<8) ^ byteStep[s>>24].
var byteStep = func() (t [256]uint64) {
	l := MustNewLFSR(32, 1)
	for b := range t {
		l.state = uint64(b) << 24
		for k := 0; k < 8; k++ {
			l.NextBit()
		}
		t[b] = l.state
	}
	return t
}()

// Patterns returns k vectors of width n.
func (g *Generator) Patterns(k, n int) []logic.Vector {
	out := make([]logic.Vector, k)
	for i := range out {
		out[i] = g.Pattern(n)
	}
	return out
}

// Stimuli bundles the scan loads and primary-input vectors for a test set.
type Stimuli struct {
	Loads []logic.Vector
	PIs   []logic.Vector
}

// GenerateStimuli produces k patterns for a design with the given scan and
// primary-input widths.
func GenerateStimuli(k, scanWidth, piWidth int, seed uint64) Stimuli {
	g := NewGenerator(seed)
	return Stimuli{
		Loads: g.Patterns(k, scanWidth),
		PIs:   g.Patterns(k, piWidth),
	}
}
