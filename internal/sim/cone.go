package sim

// Cone-limited word-parallel evaluation: the PPSFP fault-simulation kernel.
//
// A single stuck-at fault can only disturb the gates in its combinational
// fanout cone, so after the fault-free ("good") machine has been evaluated
// once for a 64-pattern block, each fault needs only its cone re-evaluated —
// every fanin read at the cone frontier comes straight from the retained
// good-machine words. Block captures the good machine's full pval state,
// ConeIndex holds the circuit-wide immutable adjacency (built once, shared
// by every worker), and ConeSim is the per-worker scratch that builds cones
// and evaluates them. internal/fault drives these from its fault-parallel
// PPSFP engine; the scalar equivalence is locked by TestConeDiffMatchesScalar.

import (
	"sort"

	"xhybrid/internal/netlist"
)

// ConeIndex is the immutable circuit-wide adjacency the cone kernel needs:
// combinational fanout (CSR-compacted), the scan cells observing each node,
// and each node's topological rank. Build it once per circuit and share it
// across workers; per-worker scratch lives in ConeSim.
type ConeIndex struct {
	c *netlist.Circuit
	// fanout CSR: readers[fanoutOff[n]:fanoutOff[n+1]] are the
	// combinational gates reading node n (state elements excluded — they
	// do not propagate combinationally; their capture is read separately).
	fanoutOff []int32
	readers   []int32
	// capOf CSR: capCells[capOff[n]:capOff[n+1]] are the scan-cell indices
	// whose capture input (DFF fanin) is node n.
	capOff   []int32
	capCells []int32
	// capIn[i] is the capture driver node of scan cell i.
	capIn []int32
	// pos[n] is the node's topological rank: 0 for sources, EvalOrder
	// position + 1 for combinational gates. Sorting cone gates by pos
	// yields a valid evaluation order.
	pos []int32
}

// NewConeIndex builds the shared cone adjacency for a finalized circuit.
func NewConeIndex(c *netlist.Circuit) *ConeIndex {
	n := c.NumGates()
	ix := &ConeIndex{
		c:         c,
		fanoutOff: make([]int32, n+1),
		capOff:    make([]int32, n+1),
		capIn:     make([]int32, len(c.ScanCells)),
		pos:       make([]int32, n),
	}
	for i, id := range c.EvalOrder() {
		ix.pos[id] = int32(i + 1)
	}
	// Count, prefix-sum, fill: classic two-pass CSR build.
	for _, g := range c.Gates {
		if g.Type.IsState() {
			continue
		}
		for _, f := range g.Fanin {
			ix.fanoutOff[f+1]++
		}
	}
	for i, id := range c.ScanCells {
		ix.capIn[i] = int32(c.Gates[id].Fanin[0])
		ix.capOff[c.Gates[id].Fanin[0]+1]++
	}
	for i := 0; i < n; i++ {
		ix.fanoutOff[i+1] += ix.fanoutOff[i]
		ix.capOff[i+1] += ix.capOff[i]
	}
	ix.readers = make([]int32, ix.fanoutOff[n])
	ix.capCells = make([]int32, ix.capOff[n])
	next := make([]int32, n)
	for id, g := range c.Gates {
		if g.Type.IsState() {
			continue
		}
		for _, f := range g.Fanin {
			ix.readers[ix.fanoutOff[f]+next[f]] = int32(id)
			next[f]++
		}
	}
	for i := range next {
		next[i] = 0
	}
	for i := range c.ScanCells {
		d := ix.capIn[i]
		ix.capCells[ix.capOff[d]+next[d]] = int32(i)
		next[d]++
	}
	return ix
}

// fanoutOf returns the combinational readers of node n.
func (ix *ConeIndex) fanoutOf(n int32) []int32 {
	return ix.readers[ix.fanoutOff[n]:ix.fanoutOff[n+1]]
}

// capCellsOf returns the scan cells capturing node n.
func (ix *ConeIndex) capCellsOf(n int32) []int32 {
	return ix.capCells[ix.capOff[n]:ix.capOff[n+1]]
}

// ConeSim is one worker's cone-evaluation scratch: a full-size faulty word
// array with generation stamps (so "reset" is a counter bump, not a clear),
// plus reusable cone buffers. Not safe for concurrent use — parallel
// callers give each worker its own ConeSim over a shared ConeIndex.
type ConeSim struct {
	ix      *ConeIndex
	faulty  []pval
	stamp   []uint32
	gen     uint32
	mark    []uint32
	markGen uint32
	gates   []int32
	cells   []int32
	queue   []int32
}

// NewSim returns a fresh per-worker cone evaluator over the index.
func (ix *ConeIndex) NewSim() *ConeSim {
	n := ix.c.NumGates()
	return &ConeSim{
		ix:     ix,
		faulty: make([]pval, n),
		stamp:  make([]uint32, n),
		mark:   make([]uint32, n),
	}
}

// BuildCone computes the combinational fanout cone of node: the gates whose
// value the fault can disturb, in topological evaluation order, and the
// sorted scan-cell indices observing the node or any cone gate. The
// returned slices alias internal buffers and are valid until the next
// BuildCone call on this ConeSim.
func (cs *ConeSim) BuildCone(node int) (gates, obsCells []int32) {
	ix := cs.ix
	cs.markGen++
	cs.gates = cs.gates[:0]
	cs.cells = cs.cells[:0]
	cs.queue = append(cs.queue[:0], int32(node))
	cs.mark[node] = cs.markGen
	cs.cells = append(cs.cells, ix.capCellsOf(int32(node))...)
	for len(cs.queue) > 0 {
		n := cs.queue[len(cs.queue)-1]
		cs.queue = cs.queue[:len(cs.queue)-1]
		for _, r := range ix.fanoutOf(n) {
			if cs.mark[r] == cs.markGen {
				continue
			}
			cs.mark[r] = cs.markGen
			cs.gates = append(cs.gates, r)
			cs.cells = append(cs.cells, ix.capCellsOf(r)...)
			cs.queue = append(cs.queue, r)
		}
	}
	sort.Slice(cs.gates, func(i, j int) bool { return ix.pos[cs.gates[i]] < ix.pos[cs.gates[j]] })
	sort.Slice(cs.cells, func(i, j int) bool { return cs.cells[i] < cs.cells[j] })
	return cs.gates, cs.cells
}

// FaultDiff evaluates the fault against the good block by re-evaluating
// only the cone gates (frontier fanins read the good machine's words) and
// calls visit once per observing scan cell whose captured word provably
// flips — lanes has bit k set when pattern k's capture is a known value in
// both machines and the values differ. gates and obsCells must come from
// BuildCone(fault.Node) on this ConeSim. Returns the number of gate
// evaluations performed (0 when forcing the fault cannot change the node's
// word, in which case nothing downstream can differ and visit is not
// called).
func (cs *ConeSim) FaultDiff(b *Block, fault Fault, gates, obsCells []int32, visit func(cell int, lanes uint64)) int {
	ix := cs.ix
	if fault.Node < 0 || fault.Node >= len(b.vals) {
		return 0
	}
	forced := fromV(fault.StuckAt)
	if forced == b.vals[fault.Node] {
		return 0
	}
	cs.gen++
	cs.faulty[fault.Node] = forced
	cs.stamp[fault.Node] = cs.gen
	evals := 0
	for _, id32 := range gates {
		id := int(id32)
		g := &ix.c.Gates[id]
		for _, f := range g.Fanin {
			if cs.stamp[f] != cs.gen {
				cs.faulty[f] = b.vals[f]
				cs.stamp[f] = cs.gen
			}
		}
		cs.faulty[id] = evalGateP(g, cs.faulty)
		cs.stamp[id] = cs.gen
		evals++
	}
	for _, cell := range obsCells {
		d := ix.capIn[cell]
		gw := b.vals[d]
		fw := cs.faulty[d] // d is the fault node or a cone gate: always stamped
		diff := (gw.one ^ fw.one) &^ (gw.x | fw.x) & b.lanes
		if diff != 0 {
			visit(int(cell), diff)
		}
	}
	return evals
}

// CellCount returns the scan-cell count of the indexed circuit (the width
// visit cell indices range over).
func (ix *ConeIndex) CellCount() int { return len(ix.capIn) }
