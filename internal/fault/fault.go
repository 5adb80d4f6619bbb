// Package fault implements the single-stuck-at fault model and a serial
// fault simulator with fault dropping over the three-valued scan-test flow.
// It exists to demonstrate, with measurements rather than argument, the
// paper's fault-coverage claims: the proposed partition masks never reduce
// coverage (they only remove X's), while lossy masking variants do.
//
// In the end-to-end flow (docs/FLOW.md) this is the optional faultsim
// stage: the same sampled fault list is simulated twice — once fully
// observable, once under the plan's masks via the Observe predicate — and
// the two detection counts must be equal. The equality is guaranteed by
// construction (a mask only covers cells that capture X under every
// pattern of its partition, and a detection requires a known fault-free
// value), so the stage is a measurement of the invariant, not a filter.
// Detection semantics are strict: a fault is detected only where the
// fault-free capture is a known value that the faulty capture flips —
// X's never count, in either direction.
//
// This package implements the demonstrative half of the DESIGN.md §3
// substitution (real small-scale fault simulation in place of a commercial
// one); §5.4 states the coverage guarantee it measures.
package fault

import (
	"fmt"
	"math/rand"

	"xhybrid/internal/logic"
	"xhybrid/internal/netlist"
	"xhybrid/internal/sim"
)

// Def is a single stuck-at fault definition.
type Def struct {
	// Node is the faulty node id.
	Node int
	// SA is the stuck value (logic.Zero or logic.One).
	SA logic.V
}

// String renders the fault like "n17/SA0".
func (d Def) String() string { return fmt.Sprintf("n%d/SA%d", d.Node, d.SA.Bit()) }

// AllFaults enumerates stuck-at-0/1 faults on every primary input and
// combinational gate output. Storage elements and tie cells are excluded:
// flop-output faults need a shift-path model and tie faults are untestable
// or equivalent to a fanout fault.
func AllFaults(c *netlist.Circuit) []Def {
	out := make([]Def, 0, 2*faultSites(c))
	for id := range c.Gates {
		if !stateOrTie(c.Gates[id].Type) {
			out = append(out, Def{Node: id, SA: logic.Zero}, Def{Node: id, SA: logic.One})
		}
	}
	return out
}

// stateOrTie reports whether a node kind is a storage element or a tie
// cell: no fault sits on its output and no collapse chain crosses it.
func stateOrTie(t netlist.GateType) bool {
	switch t {
	case netlist.DFF, netlist.NonScanDFF, netlist.Tie0, netlist.Tie1, netlist.TieX:
		return true
	}
	return false
}

// faultSites counts the nodes AllFaults puts two faults on.
func faultSites(c *netlist.Circuit) int {
	n := 0
	for id := range c.Gates {
		if !stateOrTie(c.Gates[id].Type) {
			n++
		}
	}
	return n
}

// Sample returns up to n faults drawn without replacement.
func Sample(faults []Def, n int, seed int64) []Def {
	if n >= len(faults) {
		out := make([]Def, len(faults))
		copy(out, faults)
		return out
	}
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(len(faults))
	out := make([]Def, n)
	for i := 0; i < n; i++ {
		out[i] = faults[perm[i]]
	}
	return out
}

// Observe decides whether a scan cell's captured value is observable for
// pattern p under the deployed compaction scheme. Cells masked by an X-mask
// are unobservable; everything else reaches the (X-canceling) MISR and is
// observed. A nil Observe means full observability.
type Observe func(pattern, cell int) bool

// Result summarizes a fault-simulation run.
type Result struct {
	// Total is the number of simulated faults.
	Total int
	// Detected is the number of detected faults.
	Detected int
	// DetectedBy[i] is the first detecting pattern of fault i, or -1.
	DetectedBy []int
}

// Coverage returns Detected / Total (0 with no faults).
func (r *Result) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Total)
}

// Simulate runs serial fault simulation with fault dropping. A fault is
// detected by pattern p when some scan cell captures a known value in both
// the fault-free and faulty machines, the values differ, and the cell is
// observable under obs. X values never contribute to detection
// (pessimistic, as in production flows).
func Simulate(c *netlist.Circuit, loads, pis []logic.Vector, faults []Def, obs Observe) (*Result, error) {
	if len(loads) != len(pis) {
		return nil, fmt.Errorf("fault: %d loads but %d pi vectors", len(loads), len(pis))
	}
	goodSim := sim.New(c)
	badSim := sim.New(c)
	res := &Result{Total: len(faults), DetectedBy: make([]int, len(faults))}
	for i := range res.DetectedBy {
		res.DetectedBy[i] = -1
	}
	remaining := make([]int, len(faults))
	for i := range remaining {
		remaining[i] = i
	}
	for p := 0; p < len(loads) && len(remaining) > 0; p++ {
		good, _, err := goodSim.Capture(loads[p], pis[p], sim.NoFault)
		if err != nil {
			return nil, err
		}
		keep := remaining[:0]
		for _, fi := range remaining {
			f := faults[fi]
			bad, _, err := badSim.Capture(loads[p], pis[p], sim.Fault{Node: f.Node, StuckAt: f.SA})
			if err != nil {
				return nil, err
			}
			if detects(good, bad, p, obs) {
				res.DetectedBy[fi] = p
				res.Detected++
				continue
			}
			keep = append(keep, fi)
		}
		remaining = keep
	}
	return res, nil
}

// detects reports whether the faulty response differs observably.
func detects(good, bad logic.Vector, pattern int, obs Observe) bool {
	for cell := range good {
		if good[cell] == logic.X || bad[cell] == logic.X || good[cell] == bad[cell] {
			continue
		}
		if obs == nil || obs(pattern, cell) {
			return true
		}
	}
	return false
}
