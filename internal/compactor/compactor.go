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
// FoldBlock).
package compactor

import (
	"fmt"
	"math/bits"

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

// FoldCounts tallies what folds removed and what reached the MISR.
type FoldCounts struct {
	// MaskedX and ObservableMasked count the X and the known captures in
	// masked lanes.
	MaskedX, ObservableMasked int
	// ResidualX counts the X outputs presented to the MISR.
	ResidualX int
}

// FoldBlock compacts block b of a packed response set into per-pattern MISR
// input words. For each pattern p of the block and shift cycle t, bit o of
// xs[p*ChainLen+t] is set iff output o is X in that cycle, and bit o of
// known[p*ChainLen+t] is output o's known value (zero where X); known and
// xs need a word per pattern of the set per cycle. Lanes set in
// mask[cell] are forced to 0 first, as the mask stage's AND gates do; a nil
// mask masks nothing. The block's counts are added to c.
//
// For each cycle and output, the known word is the XOR of the group's
// capture words at that cycle and the X word their OR, for 64 patterns at
// once. One Transpose64 per plane turns those output words into the
// patterns' input words.
func (t *XORTree) FoldBlock(set *scan.PackedResponses, b int, mask, known, xs []uint64, c *FoldCounts) error {
	g := set.Geom
	if g.Chains != len(t.group) {
		return fmt.Errorf("compactor: response has %d chains, tree has %d", g.Chains, len(t.group))
	}
	if b < 0 || b >= set.Blocks() {
		return fmt.Errorf("compactor: block %d of %d", b, set.Blocks())
	}
	if mask != nil && len(mask) != g.Cells() {
		return fmt.Errorf("compactor: %d mask lane words for %d cells", len(mask), g.Cells())
	}
	if words := set.Patterns() * g.ChainLen; len(known) < words || len(xs) < words {
		return fmt.Errorf("compactor: %d/%d input words for %d patterns of %d shift cycles", len(known), len(xs), set.Patterns(), g.ChainLen)
	}
	one, x := set.Block(b)
	base := 64 * b * g.ChainLen
	n := set.BlockPatterns(b)
	var kw, xw [64]uint64
	for cyc := 0; cyc < g.ChainLen; cyc++ {
		kw, xw = [64]uint64{}, [64]uint64{}
		for ch, o := range t.group {
			cell := ch*g.ChainLen + cyc
			on, xv := one[cell], x[cell]
			if mask != nil {
				if ml := mask[cell]; ml != 0 {
					c.MaskedX += bits.OnesCount64(xv & ml)
					c.ObservableMasked += bits.OnesCount64(ml &^ xv)
					on &^= ml
					xv &^= ml
				}
			}
			kw[o&63] ^= on
			xw[o&63] |= xv
		}
		for _, w := range xw[:t.outputs] {
			c.ResidualX += bits.OnesCount64(w)
		}
		gf2.Transpose64(&kw)
		gf2.Transpose64(&xw)
		for k, i := 0, base+cyc; k < n; k, i = k+1, i+g.ChainLen {
			known[i] = kw[k] &^ xw[k]
			xs[i] = xw[k]
		}
	}
	return nil
}
