package workload

import (
	"fmt"
	"math/rand"

	"xhybrid/internal/scan"
	"xhybrid/internal/xmap"
)

// ResponsesFromXMap synthesizes a fully specified response set consistent
// with an X-map: every mapped location captures X, every other cell a
// pseudo-random known value. This lets the cycle-level machinery (masking
// stage, compactor, X-canceling sessions) run on the statistical workloads,
// whose generator only decides where the X's are.
//
// The set is packed, two bits per cell per pattern. Its X plane is the
// X-map's own pattern bitsets: word b of a cell's bitset is block b's X
// word. Its One plane draws one word per cell per block from seed, cut to
// the block's lanes and cleared where the cell is X.
func ResponsesFromXMap(m *xmap.XMap, g scan.Geometry, seed int64) (*scan.PackedResponses, error) {
	if m.Cells() != g.Cells() {
		return nil, fmt.Errorf("workload: X-map has %d cells, geometry %d", m.Cells(), g.Cells())
	}
	set := scan.NewPackedResponses(g, m.Patterns())
	for _, c := range m.XCells() {
		for b, w := range c.Patterns.Words() {
			_, x := set.Block(b)
			x[c.Cell] = w
		}
	}
	r := rand.New(rand.NewSource(seed))
	for b := 0; b < set.Blocks(); b++ {
		one, x := set.Block(b)
		lanes := ^uint64(0) >> uint(64-set.BlockPatterns(b))
		for c := range one {
			one[c] = r.Uint64() & lanes &^ x[c]
		}
	}
	return set, nil
}
