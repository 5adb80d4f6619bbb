// Package scan models the scan architecture of a design under test: the
// geometry of scan chains (number of chains and cells per chain), the
// mapping between flat cell indices and (chain, position) coordinates, and
// captured output responses.
//
// Conventions: cells are indexed chain-major, cell = chain*ChainLen + pos.
// During unload, position 0 of every chain exits first, so shift cycle t
// presents the slice {(chain, t) : chain = 0..Chains-1} to the compactor.
//
// In the end-to-end flow (docs/FLOW.md) a Geometry is the contract every
// stage shares: simulation captures fill a PackedResponses under it, the
// X-map indexes cells by its chain-major flattening, the partitioner
// prices mask images as Cells() bits, and the replay shifts responses out
// by its unload schedule. Chains are equal-length by
// construction (NewGeometry rejects anything else) — the paper's
// control-bit accounting multiplies "longest scan chain length" by "number
// of scan chains", which is exact only on rectangular geometries; see
// DESIGN.md §3 for the geometry derived from the paper's own numbers and
// §5.1 for the cell-indexing convention the X-map inherits.
package scan

import "fmt"

// Geometry describes a scan architecture with equal-length chains, as
// assumed by the paper's control-bit accounting (the "longest scan chain
// length" times "number of scan chains" product).
type Geometry struct {
	// Chains is the number of parallel scan chains (MISR inputs).
	Chains int
	// ChainLen is the number of scan cells per chain.
	ChainLen int
}

// NewGeometry returns a validated geometry.
func NewGeometry(chains, chainLen int) (Geometry, error) {
	g := Geometry{Chains: chains, ChainLen: chainLen}
	if err := g.Validate(); err != nil {
		return Geometry{}, err
	}
	return g, nil
}

// MustGeometry is NewGeometry that panics on error; for tests and fixtures.
func MustGeometry(chains, chainLen int) Geometry {
	g, err := NewGeometry(chains, chainLen)
	if err != nil {
		panic(err)
	}
	return g
}

// Validate checks that the geometry is usable.
func (g Geometry) Validate() error {
	if g.Chains <= 0 {
		return fmt.Errorf("scan: non-positive chain count %d", g.Chains)
	}
	if g.ChainLen <= 0 {
		return fmt.Errorf("scan: non-positive chain length %d", g.ChainLen)
	}
	return nil
}

// Cells returns the total number of scan cells.
func (g Geometry) Cells() int { return g.Chains * g.ChainLen }

// CellIndex returns the flat index of the cell at (chain, pos).
func (g Geometry) CellIndex(chain, pos int) int {
	if chain < 0 || chain >= g.Chains || pos < 0 || pos >= g.ChainLen {
		panic(fmt.Sprintf("scan: cell (%d,%d) out of %dx%d geometry", chain, pos, g.Chains, g.ChainLen))
	}
	return chain*g.ChainLen + pos
}

// CellCoord returns the (chain, pos) coordinates of a flat cell index.
func (g Geometry) CellCoord(cell int) (chain, pos int) {
	if cell < 0 || cell >= g.Cells() {
		panic(fmt.Sprintf("scan: cell %d out of range [0,%d)", cell, g.Cells()))
	}
	return cell / g.ChainLen, cell % g.ChainLen
}

// String renders the geometry as "chains x chainLen".
func (g Geometry) String() string {
	return fmt.Sprintf("%d chains x %d cells", g.Chains, g.ChainLen)
}
