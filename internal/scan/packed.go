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
// count, to be filled through Block.
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

// Pack packs the response set, 64 cells of one block at a time
// (logic.PackLanes). A response of another geometry or width is an error.
func (s *ResponseSet) Pack() (*PackedResponses, error) {
	cells := s.Geom.Cells()
	for p, r := range s.Responses {
		if r.Geom != s.Geom || len(r.Values) != cells {
			return nil, fmt.Errorf("scan: response %d is %d values of %v, set is %v", p, len(r.Values), r.Geom, s.Geom)
		}
	}
	out := NewPackedResponses(s.Geom, len(s.Responses))
	vecs := make([]logic.Vector, 0, 64)
	var one, x [64]uint64
	for b := 0; b < out.Blocks(); b++ {
		vecs = vecs[:0]
		for _, r := range s.Responses[64*b : 64*b+out.BlockPatterns(b)] {
			vecs = append(vecs, r.Values)
		}
		bo, bx := out.Block(b)
		for lo := 0; lo < cells; lo += 64 {
			logic.PackLanes(vecs, lo, &one, &x)
			copy(bo[lo:], one[:])
			copy(bx[lo:], x[:])
		}
	}
	return out, nil
}

// Unpack returns the set one byte per cell per pattern (logic.UnpackLanes);
// the responses are cut from one allocation.
func (s *PackedResponses) Unpack() *ResponseSet {
	cells := s.Geom.Cells()
	slab := make(logic.Vector, s.patterns*cells)
	set := &ResponseSet{Geom: s.Geom, Responses: make([]Response, s.patterns)}
	vecs := make([]logic.Vector, s.patterns)
	for p := range vecs {
		vecs[p] = slab[p*cells : (p+1)*cells : (p+1)*cells]
		set.Responses[p] = Response{Geom: s.Geom, Values: vecs[p]}
	}
	var one, x [64]uint64
	for b := 0; b < s.Blocks(); b++ {
		bo, bx := s.Block(b)
		for lo := 0; lo < cells; lo += 64 {
			copy(one[:], bo[lo:])
			copy(x[:], bx[lo:])
			logic.UnpackLanes(&one, &x, vecs[64*b:64*b+s.BlockPatterns(b)], lo)
		}
	}
	return set
}
