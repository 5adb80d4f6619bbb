package netlist

import (
	"fmt"
	"math/rand"
)

// GenConfig parameterizes random circuit generation. The generator builds a
// sequential design whose captured responses exhibit the paper's X
// structure: clusters of scan cells that capture X's under the same subsets
// of test patterns (inter-correlation), produced by uninitialized storage
// elements whose X values reach the cluster through shared select logic.
type GenConfig struct {
	// Name labels the circuit.
	Name string
	// ScanCells is the number of scan flip-flops.
	ScanCells int
	// PIs is the number of primary inputs.
	PIs int
	// GatesPerCell scales the combinational cloud (default 3.0).
	GatesPerCell float64
	// XClusters is the number of X-source clusters (uninitialized
	// elements); 0 disables X generation.
	XClusters int
	// XFanout is how many scan cells each cluster reaches (default 4).
	XFanout int
	// EnableTaps is how many scan outputs gate each cluster's select; with
	// k taps a random pattern enables the X with probability about 2^-k
	// (default 2).
	EnableTaps int
	// DropoutPerMille adds, per cluster cell, a one-in-N chance of an extra
	// blocking input so that correlation is strong but not perfect
	// (default 0: perfect clusters).
	DropoutPerMille int
	// Seed drives all random choices.
	Seed int64
}

func (c *GenConfig) defaults() {
	if c.GatesPerCell <= 0 {
		c.GatesPerCell = 3
	}
	if c.XFanout <= 0 {
		c.XFanout = 4
	}
	if c.EnableTaps <= 0 {
		c.EnableTaps = 2
	}
}

// Generate builds a random sequential circuit per the configuration.
func Generate(cfg GenConfig) (*Circuit, error) {
	cfg.defaults()
	if cfg.ScanCells < 2 {
		return nil, fmt.Errorf("netlist: need at least 2 scan cells, got %d", cfg.ScanCells)
	}
	if cfg.PIs < 1 {
		return nil, fmt.Errorf("netlist: need at least 1 primary input, got %d", cfg.PIs)
	}
	if cfg.XClusters < 0 {
		return nil, fmt.Errorf("netlist: negative X cluster count %d", cfg.XClusters)
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	b := NewBuilder(cfg.Name)
	nGates := int(float64(cfg.ScanCells) * cfg.GatesPerCell)
	// Size the node list for the sources, the cloud and each cluster's
	// source, select taps, mux and per-cell XOR/OR pair, so it is allocated
	// once.
	perCluster := 2 + 2*cfg.EnableTaps + 2*cfg.XFanout
	b.c.Gates = make([]Gate, 0, cfg.PIs+cfg.ScanCells+nGates+cfg.XClusters*perCluster)
	b.c.ScanCells = make([]int, 0, cfg.ScanCells)

	// Sources: primary inputs and scan-flop outputs.
	nodes := make([]int, 0, cfg.PIs+cfg.ScanCells+nGates)
	for i := 0; i < cfg.PIs; i++ {
		nodes = append(nodes, b.Input(fmt.Sprintf("pi%d", i)))
	}
	flops := make([]int, cfg.ScanCells)
	for i := range flops {
		flops[i] = b.ScanDFFDeferred()
		nodes = append(nodes, flops[i])
	}

	// Combinational cloud over the sources.
	combTypes := []GateType{And, Or, Nand, Nor, Xor, Xnor, Not, Buf}
	for i := 0; i < nGates; i++ {
		t := combTypes[r.Intn(len(combTypes))]
		n := 2
		if t == Not || t == Buf {
			n = 1
		} else if r.Intn(4) == 0 {
			n = 3
		}
		fanin := make([]int, n)
		for j := range fanin {
			// Bias toward recent nodes to grow depth.
			k := len(nodes) - 1 - r.Intn(1+len(nodes)/2)
			fanin[j] = nodes[k]
		}
		nodes = append(nodes, b.Gate(t, fanin...))
	}

	// X clusters: an uninitialized element muxed behind shared select logic
	// that fans out to several scan cells.
	type cluster struct {
		muxed int
		cells []int
	}
	clusters := make([]cluster, 0, cfg.XClusters)
	cellDriver := make(map[int]int) // scan index -> driver node
	for g := 0; g < cfg.XClusters; g++ {
		src := b.NonScanDFF(nodes[r.Intn(len(nodes))])
		// Select: AND of EnableTaps scan outputs (possibly inverted).
		sel := flops[r.Intn(len(flops))]
		if r.Intn(2) == 1 {
			sel = b.Gate(Not, sel)
		}
		for t := 1; t < cfg.EnableTaps; t++ {
			tap := flops[r.Intn(len(flops))]
			if r.Intn(2) == 1 {
				tap = b.Gate(Not, tap)
			}
			sel = b.Gate(And, sel, tap)
		}
		// sel==1 routes the X; sel==0 routes known data.
		known := nodes[r.Intn(len(nodes))]
		muxed := b.Named(fmt.Sprintf("xmux%d", g), Mux, sel, known, src)
		cl := cluster{muxed: muxed}
		for f := 0; f < cfg.XFanout; f++ {
			cell := r.Intn(cfg.ScanCells)
			if _, taken := cellDriver[cell]; taken {
				continue
			}
			d := b.Gate(Xor, muxed, nodes[r.Intn(len(nodes))])
			if cfg.DropoutPerMille > 0 && r.Intn(1000) < cfg.DropoutPerMille {
				// An extra OR tap occasionally blocks the X for this cell.
				d = b.Gate(Or, d, flops[r.Intn(len(flops))])
			}
			cellDriver[cell] = d
			cl.cells = append(cl.cells, cell)
		}
		clusters = append(clusters, cl)
	}

	// Remaining scan cells capture plain combinational logic.
	for i, f := range flops {
		d, ok := cellDriver[i]
		if !ok {
			d = nodes[len(nodes)-1-r.Intn(1+len(nodes)/3)]
		}
		b.SetFanin(f, d)
	}

	// A few primary outputs.
	for i := 0; i < 1+cfg.ScanCells/16; i++ {
		b.PO(nodes[r.Intn(len(nodes))])
	}
	return b.Build()
}
