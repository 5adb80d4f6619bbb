// Package netlist models gate-level circuits for the scan-test substrate:
// combinational gates, scan and non-scan flip-flops, and the X-value sources
// the paper names (uninitialized memory elements, floating tri-states, bus
// contention). Circuits are built with a Builder, validated, levelized for
// simulation, and can be generated randomly with controllable X structure.
//
// In the end-to-end flow (docs/FLOW.md) Generate is the first stage: it is
// the source of every X the rest of the pipeline masks or cancels.
// GenConfig's knobs shape the X structure the way the paper observes it in
// industrial designs (clustered, inter-correlated): each cluster is one
// non-scan storage element fanned out to XFanout scan cells behind a
// shared enable, so the cluster's cells capture X on the same patterns —
// the correlation Algorithm 1 exploits — while DropoutPerMille adds
// per-cell blocking to keep the overlap imperfect. Generation is a pure
// function of GenConfig (seeded PRNG, no global state), which the flow
// relies on to re-derive a spooled job's circuit on resume. Finalized
// circuits are immutable and levelized; gate IDs are dense and
// levelization-ordered, so simulators evaluate in one forward sweep.
//
// See DESIGN.md §3 for the substitution argument (generated circuits in
// place of the paper's proprietary designs) and §5.1 for the chain-major
// cell indexing the scan geometry imposes on generated scan cells.
package netlist

import (
	"fmt"
)

// GateType enumerates the supported node kinds.
type GateType int

// Node kinds. Input is a primary input; DFF is a scan flip-flop (loadable
// and observable through the scan chain); NonScanDFF is an uninitialized
// storage element (an X source); Tri is a tri-state driver whose output
// floats (X) when its enable input is 0.
const (
	Input GateType = iota
	And
	Or
	Nand
	Nor
	Xor
	Xnor
	Not
	Buf
	Mux // fanin: sel, d0, d1
	Tri // fanin: enable, data; output X when enable != 1
	Tie0
	Tie1
	TieX
	DFF        // fanin: d
	NonScanDFF // fanin: d; powers up X
)

var gateNames = map[GateType]string{
	Input: "INPUT", And: "AND", Or: "OR", Nand: "NAND", Nor: "NOR",
	Xor: "XOR", Xnor: "XNOR", Not: "NOT", Buf: "BUF", Mux: "MUX",
	Tri: "TRI", Tie0: "TIE0", Tie1: "TIE1", TieX: "TIEX",
	DFF: "DFF", NonScanDFF: "NSDFF",
}

// String names the gate type.
func (t GateType) String() string {
	if s, ok := gateNames[t]; ok {
		return s
	}
	return fmt.Sprintf("GateType(%d)", int(t))
}

// arity returns the required fanin count, or -1 for variadic (>= 1).
func (t GateType) arity() int {
	switch t {
	case Input, Tie0, Tie1, TieX:
		return 0
	case Not, Buf, DFF, NonScanDFF:
		return 1
	case Tri:
		return 2
	case Mux:
		return 3
	case And, Or, Nand, Nor, Xor, Xnor:
		return -1
	}
	return -2
}

// IsState reports whether the node is a storage element.
func (t GateType) IsState() bool { return t == DFF || t == NonScanDFF }

// Gate is one netlist node.
type Gate struct {
	// Type is the node kind.
	Type GateType
	// Fanin lists driver node ids (meaning depends on Type).
	Fanin []int
	// Name is an optional human-readable label.
	Name string
}

// Circuit is an immutable gate-level design.
type Circuit struct {
	// Name labels the design.
	Name string
	// Gates are the nodes; a node's id is its index.
	Gates []Gate
	// PIs are the primary-input node ids in declaration order.
	PIs []int
	// POs are observed combinational outputs (optional).
	POs []int
	// ScanCells are the DFF node ids in scan-chain order: cell i of the
	// flat scan index corresponds to ScanCells[i].
	ScanCells []int
	// NonScan are the NonScanDFF node ids.
	NonScan []int

	// order is the combinational evaluation order (state outputs and
	// inputs excluded), computed at Finalize.
	order []int
	// level is the logic level per node (0 for sources).
	level []int
}

// NumGates returns the node count.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// EvalOrder returns the levelized combinational evaluation order.
func (c *Circuit) EvalOrder() []int { return c.order }

// Depth returns the maximum logic level.
func (c *Circuit) Depth() int {
	max := 0
	for _, l := range c.level {
		if l > max {
			max = l
		}
	}
	return max
}

// Stats summarizes the circuit.
type Stats struct {
	Gates     int
	PIs       int
	POs       int
	ScanCells int
	NonScan   int
	XSources  int
	Depth     int
}

// Stats computes summary statistics.
func (c *Circuit) Stats() Stats {
	s := Stats{
		Gates:     len(c.Gates),
		PIs:       len(c.PIs),
		POs:       len(c.POs),
		ScanCells: len(c.ScanCells),
		NonScan:   len(c.NonScan),
		Depth:     c.Depth(),
	}
	for _, g := range c.Gates {
		if g.Type == TieX || g.Type == Tri || g.Type == NonScanDFF {
			s.XSources++
		}
	}
	return s
}

// Validate checks structural invariants: fanin arities, id ranges, and
// combinational acyclicity (cycles must pass through storage elements).
func (c *Circuit) Validate() error {
	for id, g := range c.Gates {
		want := g.Type.arity()
		if want == -2 {
			return fmt.Errorf("netlist: node %d has invalid type %v", id, g.Type)
		}
		if want == -1 {
			if len(g.Fanin) < 1 {
				return fmt.Errorf("netlist: node %d (%v) needs at least one fanin", id, g.Type)
			}
		} else if len(g.Fanin) != want {
			return fmt.Errorf("netlist: node %d (%v) has %d fanins, want %d", id, g.Type, len(g.Fanin), want)
		}
		for _, f := range g.Fanin {
			if f < 0 || f >= len(c.Gates) {
				return fmt.Errorf("netlist: node %d references invalid fanin %d", id, f)
			}
		}
	}
	for _, id := range c.ScanCells {
		if id < 0 || id >= len(c.Gates) || c.Gates[id].Type != DFF {
			return fmt.Errorf("netlist: scan cell %d is not a DFF", id)
		}
	}
	if _, _, err := levelize(c.Gates); err != nil {
		return err
	}
	return nil
}

// levelize returns the combinational evaluation order and per-node levels.
// Storage-element outputs, inputs, and ties are level-0 sources; a
// combinational cycle is an error.
func levelize(gates []Gate) (order []int, level []int, err error) {
	n := len(gates)
	level = make([]int, n)
	state := make([]byte, n) // 0 = unvisited, 1 = in progress, 2 = done
	order = make([]int, 0, n)
	var visit func(id int) error
	visit = func(id int) error {
		switch state[id] {
		case 1:
			return fmt.Errorf("netlist: combinational cycle through node %d", id)
		case 2:
			return nil
		}
		g := gates[id]
		if g.Type == Input || g.Type.IsState() || g.Type == Tie0 || g.Type == Tie1 || g.Type == TieX {
			state[id] = 2
			level[id] = 0
			return nil
		}
		state[id] = 1
		max := 0
		for _, f := range g.Fanin {
			if err := visit(f); err != nil {
				return err
			}
			if level[f] > max {
				max = level[f]
			}
		}
		level[id] = max + 1
		state[id] = 2
		order = append(order, id)
		return nil
	}
	for id := range gates {
		if err := visit(id); err != nil {
			return nil, nil, err
		}
	}
	return order, level, nil
}

// Finalize validates the circuit and computes the evaluation order.
func (c *Circuit) Finalize() error {
	if err := c.Validate(); err != nil {
		return err
	}
	order, level, err := levelize(c.Gates)
	if err != nil {
		return err
	}
	c.order, c.level = order, level
	return nil
}
