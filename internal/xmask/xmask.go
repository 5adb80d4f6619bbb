// Package xmask implements the X-masking architecture of the paper's
// Figure 1: AND gates placed at the inputs of the output response compactor,
// driven by control bits, force selected scan-cell values to a constant
// before they reach the MISR.
//
// Two mask-synthesis styles are provided:
//
//   - Conventional per-pattern masking [5]: one control bit per scan cell
//     per pattern (chainLen * chains * patterns total), masking exactly the
//     X cells of every pattern.
//   - Per-partition shared masking (the paper's proposal): one control bit
//     per scan cell per *partition*; a cell is masked only if it captures an
//     X under every pattern of the partition, so no observable value is
//     ever lost and fault coverage is preserved by construction.
//
// This package implements the masking rule of DESIGN.md §5.2 (a cell is
// masked iff its in-partition X count equals the partition size) and the
// fault-coverage guarantee of §5.4 (VerifySafe refuses to cover any
// observable bit).
package xmask

import (
	"fmt"

	"xhybrid/internal/gf2"
	"xhybrid/internal/scan"
	"xhybrid/internal/xmap"
)

// Mask is one mask word: a bit per scan cell, set = masked (AND gate forces
// the cell's value to 0 on its way into the compactor).
type Mask struct {
	// Cells has bit c set iff cell c is masked.
	Cells gf2.Vec
}

// NewMask returns an all-pass mask over numCells cells.
func NewMask(numCells int) Mask { return Mask{Cells: gf2.NewVec(numCells)} }

// ControlBits returns the tester data volume of this mask: one bit per cell.
func (m Mask) ControlBits() int { return m.Cells.Len() }

// Masks reports whether cell is masked.
func (m Mask) Masks(cell int) bool { return m.Cells.Get(cell) }

// PartitionMask synthesizes the shared mask for the patterns selected by
// part: a cell is masked iff it captures X under *every* pattern in the
// partition. It returns the mask and the number of X values it removes
// (maskedCells * |part|).
func PartitionMask(m *xmap.XMap, part gf2.Vec) (Mask, int) {
	if part.Len() != m.Patterns() {
		panic(fmt.Sprintf("xmask: partition width %d vs %d patterns", part.Len(), m.Patterns()))
	}
	size := part.PopCount()
	mask := NewMask(m.Cells())
	maskedX := 0
	if size == 0 {
		return mask, 0
	}
	for _, c := range m.XCells() {
		if c.Patterns.PopCountAnd(part) == size {
			mask.Cells.Set(c.Cell)
			maskedX += size
		}
	}
	return mask, maskedX
}

// VerifySafe checks the paper's fault-coverage guarantee for a mask used
// with a partition: no masked cell may have a known (non-X) value under any
// pattern of the partition. PartitionMask output always satisfies this;
// VerifySafe guards externally supplied masks.
func VerifySafe(m *xmap.XMap, part gf2.Vec, mask Mask) error {
	size := part.PopCount()
	var err error
	mask.Cells.ForEach(func(cell int) {
		if err != nil {
			return
		}
		if m.CountIn(cell, part) != size {
			err = fmt.Errorf("xmask: cell %d is masked but has a non-X value in the partition (would lose observability)", cell)
		}
	})
	return err
}

// ThresholdMask is the deliberately lossy variant used for ablation: it
// masks any cell whose in-partition X fraction is at least frac, even if
// that destroys observable values. It returns the mask, the X values
// removed, and the number of observable (non-X) values lost.
func ThresholdMask(m *xmap.XMap, part gf2.Vec, frac float64) (Mask, int, int) {
	size := part.PopCount()
	mask := NewMask(m.Cells())
	maskedX, lost := 0, 0
	if size == 0 {
		return mask, 0, 0
	}
	for _, c := range m.XCells() {
		n := c.Patterns.PopCountAnd(part)
		if float64(n) >= frac*float64(size) && n > 0 {
			mask.Cells.Set(c.Cell)
			maskedX += n
			lost += size - n
		}
	}
	return mask, maskedX, lost
}

// ChainMask is the coarse-granularity ablation variant: one control bit per
// scan *chain* per partition (instead of per cell). A chain may be masked
// only if every one of its cells captures X under every pattern of the
// partition, so the no-observability-loss guarantee still holds — but far
// fewer X's qualify. Returns the set of masked chains, the X's removed, and
// the control bits (= number of chains).
func ChainMask(m *xmap.XMap, g scan.Geometry, part gf2.Vec) (maskedChains []int, maskedX, controlBits int) {
	size := part.PopCount()
	controlBits = g.Chains
	if size == 0 {
		return nil, 0, controlBits
	}
	fullCells := make(map[int]bool)
	for _, c := range m.XCells() {
		if c.Patterns.PopCountAnd(part) == size {
			fullCells[c.Cell] = true
		}
	}
	for chain := 0; chain < g.Chains; chain++ {
		all := true
		for pos := 0; pos < g.ChainLen; pos++ {
			if !fullCells[g.CellIndex(chain, pos)] {
				all = false
				break
			}
		}
		if all {
			maskedChains = append(maskedChains, chain)
			maskedX += g.ChainLen * size
		}
	}
	return maskedChains, maskedX, controlBits
}

// PerPatternPlan is the conventional X-masking scheme [5]: an exact mask
// for every pattern.
type PerPatternPlan struct {
	// Masks holds one exact mask per pattern.
	Masks []Mask
	// ControlBits is chainLen * chains * patterns.
	ControlBits int
	// MaskedX is the number of X's removed (all of them).
	MaskedX int
}

// ConventionalPerPattern builds the per-pattern plan from an X-map.
func ConventionalPerPattern(m *xmap.XMap) PerPatternPlan {
	plan := PerPatternPlan{Masks: make([]Mask, m.Patterns())}
	for p := 0; p < m.Patterns(); p++ {
		plan.Masks[p] = NewMask(m.Cells())
	}
	for _, c := range m.XCells() {
		c.Patterns.ForEach(func(p int) {
			plan.Masks[p].Cells.Set(c.Cell)
			plan.MaskedX++
		})
	}
	plan.ControlBits = m.Cells() * m.Patterns()
	return plan
}

// ControlBitsPerPattern returns the paper's X-masking-only control-bit
// volume: longest chain length * number of chains * number of patterns.
func ControlBitsPerPattern(g scan.Geometry, patterns int) int {
	return g.Cells() * patterns
}
