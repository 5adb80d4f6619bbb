package sim

import (
	"context"
	"fmt"

	"xhybrid/internal/logic"
	"xhybrid/internal/netlist"
	"xhybrid/internal/pool"
)

// pval is a 64-way parallel three-valued word: bit k of one is set when
// pattern k's value is 1; bit k of x when it is X. one and x are disjoint.
type pval struct {
	one, x uint64
}

func (v pval) zero() uint64 { return ^(v.one | v.x) }

func pnot(a pval) pval { return pval{one: a.zero(), x: a.x} }

func pand(a, b pval) pval {
	one := a.one & b.one
	x := (a.x | b.x) &^ (a.zero() | b.zero())
	return pval{one: one, x: x}
}

func por(a, b pval) pval {
	one := a.one | b.one
	x := (a.x | b.x) &^ one
	return pval{one: one, x: x}
}

func pxor(a, b pval) pval {
	x := a.x | b.x
	one := (a.one ^ b.one) &^ x
	return pval{one: one, x: x}
}

func pmux(s, d0, d1 pval) pval {
	s0 := s.zero()
	agree1 := d0.one & d1.one
	agree0 := d0.zero() & d1.zero()
	one := (s0 & d0.one) | (s.one & d1.one) | (s.x & agree1)
	x := (s0 & d0.x) | (s.one & d1.x) | (s.x &^ (agree1 | agree0))
	return pval{one: one, x: x}
}

func ptri(en, d pval) pval {
	one := en.one & d.one
	x := ^en.one | (en.one & d.x)
	return pval{one: one, x: x &^ one}
}

// fromV broadcasts a scalar value across all 64 lanes.
func fromV(v logic.V) pval {
	switch v {
	case logic.One:
		return pval{one: ^uint64(0)}
	case logic.X:
		return pval{x: ^uint64(0)}
	}
	return pval{}
}

// PSim is the 64-way parallel-pattern simulator of the fault-free machine:
// one call evaluates up to 64 patterns simultaneously, one per bit lane.
// Faulty machines are evaluated cone by cone against its Blocks (ConeSim).
type PSim struct {
	c *netlist.Circuit
	// vals holds every node's word after an evaluation; nil after
	// CaptureBlock hands it to a Block, until the next evaluation.
	vals []pval
}

// NewParallel returns a parallel simulator for the circuit.
func NewParallel(c *netlist.Circuit) *PSim {
	return &PSim{c: c}
}

// Capture evaluates len(loads) patterns (at most 64) in one pass and
// returns their captured scan responses. loads[k] and pis[k] are pattern
// k's scan load and primary-input values.
func (s *PSim) Capture(loads, pis []logic.Vector) ([]logic.Vector, error) {
	if err := s.eval(loads, pis); err != nil {
		return nil, err
	}
	return unpack(s.c, s.vals, len(loads)), nil
}

// Block is the retained word-level state of one evaluated batch of up to 64
// patterns: every node's 64-way pval word, immutable once built. The
// simulate stage unpacks its captures, and the PPSFP kernel reads the cone
// frontier's fault-free words from it.
type Block struct {
	c     *netlist.Circuit
	n     int
	lanes uint64 // mask of valid lanes: bits [0, n)
	vals  []pval
}

// Patterns returns the number of patterns the block evaluated.
func (b *Block) Patterns() int { return b.n }

// Circuit returns the circuit the block was evaluated on.
func (b *Block) Circuit() *netlist.Circuit { return b.c }

// Captures unpacks the block's scan captures: row k is pattern k's captured
// response, exactly what Capture returns for the same batch. The rows are
// cut from one allocation.
func (b *Block) Captures() []logic.Vector { return unpack(b.c, b.vals, b.n) }

// CaptureBlock is Capture, but instead of unpacking the scan captures it
// retains the whole evaluated word state as an immutable Block. The block
// takes the simulator's words, so it stays valid across further calls on
// the same PSim.
func (s *PSim) CaptureBlock(loads, pis []logic.Vector) (*Block, error) {
	if err := s.eval(loads, pis); err != nil {
		return nil, err
	}
	n := len(loads)
	b := &Block{c: s.c, n: n, lanes: laneMask(n), vals: s.vals}
	s.vals = nil
	return b, nil
}

// CaptureBlocks evaluates the fault-free machine over every pattern and
// returns one Block per 64 patterns: block b holds patterns [64b, 64b+64).
// Blocks are fanned over a pool of workers (0 = all CPUs); each chunk owns
// a private PSim and fills position-indexed slots, so the blocks are
// identical for any worker count. Canceling ctx stops between blocks with
// the context's error.
func CaptureBlocks(ctx context.Context, c *netlist.Circuit, loads, pis []logic.Vector, workers int) ([]*Block, error) {
	if len(loads) != len(pis) {
		return nil, fmt.Errorf("sim: %d loads but %d pi vectors", len(loads), len(pis))
	}
	blocks := make([]*Block, (len(loads)+63)/64)
	p := pool.New(workers)
	defer p.Close()
	errs := make([]error, p.Workers())
	p.Chunks(len(blocks), func(ci, lo, hi int) {
		ps := NewParallel(c)
		for b := lo; b < hi; b++ {
			if err := ctx.Err(); err != nil {
				errs[ci] = err
				return
			}
			base, top := b*64, min(b*64+64, len(loads))
			blk, err := ps.CaptureBlock(loads[base:top], pis[base:top])
			if err != nil {
				errs[ci] = err
				return
			}
			blocks[b] = blk
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return blocks, nil
}

// laneMask returns the mask of valid lanes for an n-pattern batch.
func laneMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// tileLen is how many scan cells or inputs pack and unpack handle at a
// time: a tile's words (4 KiB) stay in L1 while every pattern's slice of
// it is walked.
const tileLen = 256

// eval runs the full 64-way evaluation for the batch, leaving every node's
// word in s.vals.
func (s *PSim) eval(loads, pis []logic.Vector) error {
	c := s.c
	n := len(loads)
	if n == 0 || n > 64 {
		return fmt.Errorf("sim: parallel batch of %d patterns, want 1..64", n)
	}
	if len(pis) != n {
		return fmt.Errorf("sim: %d loads but %d pi vectors", n, len(pis))
	}
	for k := 0; k < n; k++ {
		if len(loads[k]) != len(c.ScanCells) {
			return fmt.Errorf("sim: load %d width %d, want %d", k, len(loads[k]), len(c.ScanCells))
		}
		if len(pis[k]) != len(c.PIs) {
			return fmt.Errorf("sim: pi %d width %d, want %d", k, len(pis[k]), len(c.PIs))
		}
	}
	if s.vals == nil {
		s.vals = make([]pval, c.NumGates())
	}
	s.pack(c.PIs, pis)
	s.pack(c.ScanCells, loads)
	for _, id := range c.NonScan {
		s.vals[id] = fromV(logic.X)
	}
	for id := range c.Gates {
		switch c.Gates[id].Type {
		case netlist.Tie0:
			s.vals[id] = fromV(logic.Zero)
		case netlist.Tie1:
			s.vals[id] = fromV(logic.One)
		case netlist.TieX:
			s.vals[id] = fromV(logic.X)
		}
	}
	for _, id := range c.EvalOrder() {
		s.vals[id] = evalGateP(&c.Gates[id], s.vals)
	}
	return nil
}

// pack sets node ids[i]'s word from vecs[k][i] for every pattern k: lane k
// gets a one bit only for One and an X bit only for X. It walks each
// pattern's vector in order, one tile of positions at a time.
func (s *PSim) pack(ids []int, vecs []logic.Vector) {
	var tile [tileLen]pval
	for lo := 0; lo < len(ids); lo += tileLen {
		w := tile[:min(tileLen, len(ids)-lo)]
		clear(w)
		for k, vec := range vecs {
			sh := uint(k) & 63 // k < 64; the mask drops the compiler's wide-shift check
			vec = vec[lo : lo+len(w)]
			for i := range w {
				e := vec[i]
				w[i].one |= is(e, logic.One) << sh
				w[i].x |= is(e, logic.X) << sh
			}
		}
		for i, v := range w {
			s.vals[ids[lo+i]] = v
		}
	}
}

// is returns 1 when e == v and 0 otherwise, without a branch.
func is(e, v logic.V) uint64 { return (uint64(e^v) - 1) >> 63 }

// unpack returns the n patterns' captures from the evaluated words: it
// gathers each scan cell's capture word once, then writes every pattern's
// row a tile at a time. one and x are disjoint, so one|x<<1 is the value's
// encoding (Zero 0, One 1, X 2).
func unpack(c *netlist.Circuit, vals []pval, n int) []logic.Vector {
	cells := len(c.ScanCells)
	slab := make(logic.Vector, n*cells)
	out := make([]logic.Vector, n)
	for k := range out {
		out[k] = slab[k*cells : (k+1)*cells : (k+1)*cells]
	}
	var tile [tileLen]pval
	for lo := 0; lo < cells; lo += tileLen {
		w := tile[:min(tileLen, cells-lo)]
		for i := range w {
			w[i] = vals[c.Gates[c.ScanCells[lo+i]].Fanin[0]]
		}
		for k, row := range out {
			sh := uint(k) & 63 // as in pack
			row = row[lo : lo+len(w)]
			for i := range w {
				row[i] = logic.V(w[i].one>>sh&1 | (w[i].x>>sh&1)<<1)
			}
		}
	}
	return out
}

func evalGateP(g *netlist.Gate, vals []pval) pval {
	switch g.Type {
	case netlist.And, netlist.Nand:
		out := fromV(logic.One)
		for _, f := range g.Fanin {
			out = pand(out, vals[f])
		}
		if g.Type == netlist.Nand {
			out = pnot(out)
		}
		return out
	case netlist.Or, netlist.Nor:
		out := fromV(logic.Zero)
		for _, f := range g.Fanin {
			out = por(out, vals[f])
		}
		if g.Type == netlist.Nor {
			out = pnot(out)
		}
		return out
	case netlist.Xor, netlist.Xnor:
		out := fromV(logic.Zero)
		for _, f := range g.Fanin {
			out = pxor(out, vals[f])
		}
		if g.Type == netlist.Xnor {
			out = pnot(out)
		}
		return out
	case netlist.Not:
		return pnot(vals[g.Fanin[0]])
	case netlist.Buf:
		return vals[g.Fanin[0]]
	case netlist.Mux:
		return pmux(vals[g.Fanin[0]], vals[g.Fanin[1]], vals[g.Fanin[2]])
	case netlist.Tri:
		return ptri(vals[g.Fanin[0]], vals[g.Fanin[1]])
	}
	panic(fmt.Sprintf("sim: evalGateP on non-combinational node type %v", g.Type))
}
