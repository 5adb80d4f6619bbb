// Package compactor implements the spatial XOR compaction network that sits
// between many scan chains and the MISR's m inputs (industrial designs have
// hundreds of chains feeding a 32-bit MISR; the paper's architecture diagram
// places the masking AND gates in front of exactly such a compactor).
//
// Each chain feeds exactly one XOR group, so unknowns never become
// correlated across MISR inputs: the XOR of any set containing an unknown
// is a single fresh unknown, which the symbolic X-canceling machinery
// tracks as one symbol.
//
// A tree has at most 64 outputs, the widest MISR, so one shift cycle's
// output fits a pair of words: the X plane and the known-value plane (see
// Fold).
package compactor

import (
	"fmt"

	"xhybrid/internal/gf2"
	"xhybrid/internal/logic"
	"xhybrid/internal/scan"
)

// XORTree maps chains onto a smaller number of outputs by disjoint XOR
// groups.
type XORTree struct {
	// group[c] is the output index chain c feeds.
	group []int
	// outputs is the number of compactor outputs (MISR inputs).
	outputs int
}

// NewModulo builds the canonical interleaved tree: chain c feeds output
// c mod outputs.
func NewModulo(chains, outputs int) (*XORTree, error) {
	if chains < 1 || outputs < 1 {
		return nil, fmt.Errorf("compactor: need positive chains (%d) and outputs (%d)", chains, outputs)
	}
	if outputs > chains {
		return nil, fmt.Errorf("compactor: %d outputs exceed %d chains", outputs, chains)
	}
	if outputs > 64 {
		return nil, fmt.Errorf("compactor: %d outputs exceed the 64 inputs of the widest MISR", outputs)
	}
	t := &XORTree{group: make([]int, chains), outputs: outputs}
	for c := range t.group {
		t.group[c] = c % outputs
	}
	return t, nil
}

// MustModulo is NewModulo that panics on error.
func MustModulo(chains, outputs int) *XORTree {
	t, err := NewModulo(chains, outputs)
	if err != nil {
		panic(err)
	}
	return t
}

// Chains returns the number of compactor inputs.
func (t *XORTree) Chains() int { return len(t.group) }

// Outputs returns the number of compactor outputs.
func (t *XORTree) Outputs() int { return t.outputs }

// Group returns the output index chain c feeds.
func (t *XORTree) Group(c int) int { return t.group[c] }

// Apply compacts one shift slice (one value per chain) into one value per
// output. An output with any X input is X (the XOR of a set containing an
// unknown is unknown); otherwise it is the XOR of its known inputs.
func (t *XORTree) Apply(slice logic.Vector) (logic.Vector, error) {
	if len(slice) != len(t.group) {
		return nil, fmt.Errorf("compactor: slice width %d, want %d", len(slice), len(t.group))
	}
	out := make(logic.Vector, t.outputs)
	for c, v := range slice {
		out[t.group[c]] = logic.Xor(out[t.group[c]], v)
	}
	return out, nil
}

// CompactResponse compacts a full response into the per-cycle MISR input
// slices (ChainLen slices of width Outputs). It is Fold with nothing masked,
// unpacked.
func (t *XORTree) CompactResponse(r scan.Response) ([]logic.Vector, error) {
	known := make([]uint64, r.Geom.ChainLen)
	xs := make([]uint64, r.Geom.ChainLen)
	if err := t.Fold(r, gf2.Vec{}, known, xs); err != nil {
		return nil, err
	}
	out := make([]logic.Vector, len(known))
	for cyc := range out {
		v := make(logic.Vector, t.outputs)
		for o := range v {
			v[o] = logic.V(known[cyc]>>uint(o)&1 | (xs[cyc]>>uint(o)&1)<<1)
		}
		out[cyc] = v
	}
	return out, nil
}

// Fold compacts a response into per-shift-cycle bit-planes: after the call,
// bit o of xs[t] is set iff output o is X in cycle t, and bit o of known[t]
// is output o's known value (the XOR of its inputs; zero where X). Cells set
// in masked are forced to 0 first, as the mask stage's AND gates do; an
// empty masked vector masks nothing. known and xs need ChainLen words.
//
// The logic encoding does the plane split without branches: One (1) and
// X (2) put their value's low bit on the known plane and its high bit on
// the X plane.
func (t *XORTree) Fold(r scan.Response, masked gf2.Vec, known, xs []uint64) error {
	g := r.Geom
	if g.Chains != len(t.group) {
		return fmt.Errorf("compactor: response has %d chains, tree has %d", g.Chains, len(t.group))
	}
	if len(r.Values) != g.Cells() {
		return fmt.Errorf("compactor: response has %d values, want %d", len(r.Values), g.Cells())
	}
	if masked.Len() != 0 && masked.Len() != g.Cells() {
		return fmt.Errorf("compactor: mask width %d vs %d cells", masked.Len(), g.Cells())
	}
	if len(known) < g.ChainLen || len(xs) < g.ChainLen {
		return fmt.Errorf("compactor: %d/%d plane words for %d shift cycles", len(known), len(xs), g.ChainLen)
	}
	known, xs = known[:g.ChainLen], xs[:g.ChainLen]
	clear(known)
	clear(xs)
	next := masked.NextSet(0)
	for c, o := range t.group {
		base := c * g.ChainLen
		for cyc, v := range r.Values[base : base+g.ChainLen] {
			if base+cyc == next {
				next = masked.NextSet(next + 1)
				continue
			}
			known[cyc] ^= uint64(v&1) << uint(o)
			xs[cyc] |= uint64(v>>1) << uint(o)
		}
	}
	for cyc, x := range xs {
		known[cyc] &^= x
	}
	return nil
}
