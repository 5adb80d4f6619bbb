package scan

import (
	"fmt"

	"xhybrid/internal/logic"
)

// PackedResponses is a response set in the parallel simulator's 64-pattern
// words. Block b holds patterns [64b, 64b+64): for each cell one word of
// One lanes and one word of X lanes (a Zero sets neither), bit k for
// pattern 64b+k. Lanes at or past the pattern count are zero in both
// planes. The circuit flow's simulate stage fills one from the simulator's
// capture words; the X-map is read from its X words and the replay folds it
// block by block, so no stage holds a byte per cell per pattern.
type PackedResponses struct {
	Geom     Geometry
	patterns int
	// one and x hold block b's word for cell i at b*Geom.Cells()+i.
	one, x []uint64
}

// NewPackedResponses returns an all-Zero packed set of the given pattern
// count, to be filled through Block or Set.
func NewPackedResponses(g Geometry, patterns int) *PackedResponses {
	words := (patterns + 63) / 64 * g.Cells()
	return &PackedResponses{Geom: g, patterns: patterns, one: make([]uint64, words), x: make([]uint64, words)}
}

// Patterns returns the number of responses in the set.
func (s *PackedResponses) Patterns() int { return s.patterns }

// Blocks returns the number of 64-pattern blocks.
func (s *PackedResponses) Blocks() int { return (s.patterns + 63) / 64 }

// BlockPatterns returns how many patterns block b holds: 64, except in a
// partial last block.
func (s *PackedResponses) BlockPatterns(b int) int { return min(64, s.patterns-64*b) }

// Block returns block b's One and X words, one per cell. The slices are
// shared with the set: a builder fills them, everyone else reads them.
func (s *PackedResponses) Block(b int) (one, x []uint64) {
	cells := s.Geom.Cells()
	return s.one[b*cells : (b+1)*cells], s.x[b*cells : (b+1)*cells]
}

// At returns pattern p's value in cell. A p or cell out of range panics,
// as Geometry.CellIndex does.
func (s *PackedResponses) At(p, cell int) logic.V {
	i, k := s.lane(p, cell)
	return logic.V(s.one[i]>>k&1 | (s.x[i]>>k&1)<<1)
}

// Set stores v as pattern p's value in cell, writing its lane bit in both
// planes. A p or cell out of range panics.
func (s *PackedResponses) Set(p, cell int, v logic.V) {
	i, k := s.lane(p, cell)
	s.one[i] = s.one[i]&^(1<<k) | uint64(v&1)<<k
	s.x[i] = s.x[i]&^(1<<k) | uint64(v>>1&1)<<k
}

// lane returns the word index and lane of pattern p in cell.
func (s *PackedResponses) lane(p, cell int) (int, uint) {
	if p < 0 || p >= s.patterns || cell < 0 || cell >= s.Geom.Cells() {
		panic(fmt.Sprintf("scan: pattern %d cell %d out of %d patterns x %d cells", p, cell, s.patterns, s.Geom.Cells()))
	}
	return p/64*s.Geom.Cells() + cell, uint(p % 64)
}
