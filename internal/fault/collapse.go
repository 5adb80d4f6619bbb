package fault

import (
	"xhybrid/internal/logic"
	"xhybrid/internal/netlist"
)

// Class is one equivalence class of collapsed faults.
type Class struct {
	// Rep is the representative fault (the root of the inverter/buffer
	// chain).
	Rep Def
	// Members are all faults in the class, including Rep.
	Members []Def
}

// Collapse merges structurally equivalent stuck-at faults: a fault on a
// buffer's output is equivalent to the same fault on its input, and a fault
// on an inverter's output to the opposite fault on its input — provided the
// input node has no other fanout (with fanout, the stem fault affects more
// logic and is not equivalent). Classes are returned in order of their
// representative's first appearance.
func Collapse(c *netlist.Circuit, faults []Def) []Class {
	fanout := make([]int, c.NumGates())
	for _, g := range c.Gates {
		for _, f := range g.Fanin {
			fanout[f]++
		}
	}
	for _, id := range c.POs {
		fanout[id]++ // observed directly; treat as extra fanout
	}

	root := func(d Def) Def {
		for {
			g := c.Gates[d.Node]
			var next int
			flip := false
			switch g.Type {
			case netlist.Buf:
				next = g.Fanin[0]
			case netlist.Not:
				next = g.Fanin[0]
				flip = true
			default:
				return d
			}
			if fanout[next] != 1 {
				return d
			}
			// Never collapse across state or tie boundaries.
			switch c.Gates[next].Type {
			case netlist.DFF, netlist.NonScanDFF, netlist.Tie0, netlist.Tie1, netlist.TieX:
				return d
			}
			d.Node = next
			if flip {
				d.SA = logic.Not(d.SA)
			}
		}
	}

	// index[2*node+sa] is the class of representative {node, sa} plus one;
	// zero means no class yet.
	index := make([]int32, 2*c.NumGates())
	classes := make([]Class, 0, len(faults))
	for _, f := range faults {
		r := root(f)
		key := 2*r.Node + int(r.SA)
		i := int(index[key]) - 1
		if i < 0 {
			i = len(classes)
			index[key] = int32(i + 1)
			classes = append(classes, Class{Rep: r})
		}
		classes[i].Members = append(classes[i].Members, f)
	}
	return classes
}

// Representatives extracts one fault per class.
func Representatives(classes []Class) []Def {
	out := make([]Def, len(classes))
	for i, cl := range classes {
		out[i] = cl.Rep
	}
	return out
}
