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
	root := rootOf(c)
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

// CollapsedFaults is Representatives(Collapse(c, AllFaults(c))) together
// with len(AllFaults(c)), computed in one pass over the gates: it builds
// neither the full fault list nor the classes' member lists. The flow's
// faultsim stage draws its sample from it.
func CollapsedFaults(c *netlist.Circuit) (reps []Def, all int) {
	root := rootOf(c)
	seen := make([]bool, 2*c.NumGates())
	reps = make([]Def, 0, 2*faultSites(c))
	for id := range c.Gates {
		if stateOrTie(c.Gates[id].Type) {
			continue
		}
		for _, sa := range [2]logic.V{logic.Zero, logic.One} {
			all++
			r := root(Def{Node: id, SA: sa})
			if key := 2*r.Node + int(r.SA); !seen[key] {
				seen[key] = true
				reps = append(reps, r)
			}
		}
	}
	return reps, all
}

// rootOf returns the equivalence rule Collapse and CollapsedFaults share:
// root follows a fault back through single-fanout buffers and inverters
// (flipping the stuck value across each inverter) to its class
// representative, never crossing a state or tie boundary.
func rootOf(c *netlist.Circuit) (root func(Def) Def) {
	fanout := make([]int32, c.NumGates())
	for id := range c.Gates {
		for _, f := range c.Gates[id].Fanin {
			fanout[f]++
		}
	}
	for _, id := range c.POs {
		fanout[id]++ // observed directly; treat as extra fanout
	}
	return func(d Def) Def {
		for {
			g := &c.Gates[d.Node]
			if g.Type != netlist.Buf && g.Type != netlist.Not {
				return d
			}
			next := g.Fanin[0]
			if fanout[next] != 1 || stateOrTie(c.Gates[next].Type) {
				return d
			}
			if g.Type == netlist.Not {
				d.SA = logic.Not(d.SA)
			}
			d.Node = next
		}
	}
}

// Representatives extracts one fault per class.
func Representatives(classes []Class) []Def {
	out := make([]Def, len(classes))
	for i, cl := range classes {
		out[i] = cl.Rep
	}
	return out
}
