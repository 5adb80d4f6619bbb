// Package xcancel implements the X-canceling MISR methodology [12, 13]:
// unknown values are allowed into the MISR, their propagation is tracked
// symbolically, and Gaussian elimination over GF(2) finds linear
// combinations of signature bits with no X dependence. Those X-free
// combinations are compared against their fault-free values, preserving
// fault coverage without blocking any response bits.
//
// The package provides both the closed-form accounting used by the paper's
// Table 1 (control bits and normalized test time as functions of the total
// X count, MISR size m, and X-free combination count q) and a cycle-level
// session controller over a symbolic MISR for end-to-end demonstrations.
//
// This package implements DESIGN.md §5.3 (symbolic MISR sessions, halting,
// X-free extraction, and the control-bit / test-time accounting).
package xcancel

import (
	"fmt"
	"math/bits"

	"xhybrid/internal/compactor"
	"xhybrid/internal/logic"
	"xhybrid/internal/misr"
	"xhybrid/internal/obs"
	"xhybrid/internal/scan"
)

// Config describes an X-canceling MISR deployment.
type Config struct {
	// MISR is the register configuration (size m and polynomial).
	MISR misr.Config
	// Q is the number of X-free combinations extracted per halt. Each halt
	// transfers m*Q selection control bits and costs Q extraction cycles in
	// the time-multiplexed architecture [11].
	Q int
	// Shadow selects the shadow-register variant of [11]: extraction
	// overlaps scan shifting, so it costs no test time, but the selection
	// data needs dedicated tester channels. Accounting only.
	Shadow bool
}

// Validate checks the configuration invariants.
func (c Config) Validate() error {
	if err := c.MISR.Validate(); err != nil {
		return err
	}
	if c.Q < 1 || c.Q >= c.MISR.Size {
		return fmt.Errorf("xcancel: q = %d must satisfy 1 <= q < m = %d", c.Q, c.MISR.Size)
	}
	return nil
}

// checkMQ panics unless 1 <= q < m, the precondition of every closed-form
// accounting function below. Halts per session hold m-q X's, so q >= m
// (zero or negative capacity) has no defined halt count — before this
// guard, q = m crashed with an anonymous divide-by-zero and q > m returned
// negative counts that silently corrupted Table-1 numbers. Callers that
// take m and q from external input should validate with Config.Validate
// and return the error instead of reaching this panic.
func checkMQ(m, q int) {
	if q < 1 || q >= m {
		panic(fmt.Sprintf("xcancel: invalid accounting config m=%d q=%d (need 1 <= q < m)", m, q))
	}
}

// Halts returns the number of scan halts needed to retire totalX unknown
// values: ceil(totalX / (m - q)). Zero X's need zero halts for any m and
// q; otherwise the configuration must satisfy 1 <= q < m or Halts panics
// (see checkMQ).
func Halts(totalX, m, q int) int {
	if totalX <= 0 {
		return 0
	}
	checkMQ(m, q)
	cap := m - q
	return (totalX + cap - 1) / cap
}

// ControlBits returns the paper's X-canceling control-bit volume
// ceil(m*q*totalX / (m-q)): each halt transfers m*q selection bits and the
// product is rounded up once at the end, matching the paper's worked
// examples (57.5 -> 58, 43.3 -> 44, 50.5 -> 51). Zero X's cost zero bits
// for any m and q; otherwise the configuration must satisfy 1 <= q < m or
// ControlBits panics (see checkMQ).
func ControlBits(totalX, m, q int) int {
	if totalX <= 0 {
		return 0
	}
	checkMQ(m, q)
	num := m * q * totalX
	den := m - q
	return (num + den - 1) / den
}

// ControlBitsPerHaltCeil is the alternative accounting that rounds the halt
// count up first: Halts * m * q. It upper-bounds ControlBits and is what a
// cycle-accurate controller actually transfers; exposed for the rounding
// ablation. It shares Halts's precondition (1 <= q < m when totalX > 0).
func ControlBitsPerHaltCeil(totalX, m, q int) int {
	return Halts(totalX, m, q) * m * q
}

// NormalizedTestTime returns the paper's normalized test time for the
// time-multiplexed X-canceling MISR: 1 + chains*xDensity*q/(m-q), where
// xDensity is the fraction of response bits (entering the MISR) that are X.
// The shadow-register variant always has normalized time 1. The
// time-multiplexed configuration must satisfy 1 <= q < m or the function
// panics (see checkMQ) — before the guard, q = m returned +Inf and q > m a
// time below 1, both silently wrong.
func NormalizedTestTime(cfg Config, chains int, xDensity float64) float64 {
	if cfg.Shadow {
		return 1
	}
	m, q := cfg.MISR.Size, cfg.Q
	checkMQ(m, q)
	return 1 + float64(chains)*xDensity*float64(q)/float64(m-q)
}

// Signature is one extracted X-free combination.
type Signature struct {
	// Selection selects the signature bits XORed together: bit i selects
	// signature bit i.
	Selection uint64
	// Parity is the combination's fault-free-known parity at extraction.
	Parity int
}

// Halt records one scan-halt extraction event.
type Halt struct {
	// Cycle is the shift-cycle index at which the halt occurred.
	Cycle int
	// XRetired is the number of accumulated X symbols retired.
	XRetired int
	// Signatures are the extracted X-free combinations (up to Q).
	Signatures []Signature
	// Deficit is Q minus the number of X-free combinations available; a
	// nonzero deficit means more X's accumulated in one cycle than m-q.
	Deficit int
}

// Result summarizes a full X-canceling run.
type Result struct {
	Halts       []Halt
	TotalX      int
	ShiftCycles int
	// HaltCycles is Q per halt for the time-multiplexed variant, 0 for
	// the shadow-register variant.
	HaltCycles int
	// ControlBits is m*Q per halt actually transferred.
	ControlBits int
	// FinalSignature is the MISR state read out at end of test. It is
	// X-free: the register is reset at every halt, so it only accumulates
	// known values captured after the last halt.
	FinalSignature uint64
}

// NormalizedTime returns (shift + halt cycles) / shift cycles.
func (r Result) NormalizedTime() float64 {
	if r.ShiftCycles == 0 {
		return 1
	}
	return float64(r.ShiftCycles+r.HaltCycles) / float64(r.ShiftCycles)
}

// Canceler is the cycle-level session controller. Feed it one compactor
// input slice per shift cycle; it accumulates X symbols in a symbolic MISR
// and halts whenever the pending X count reaches m-q, extracting Q X-free
// combinations and retiring the symbols.
type Canceler struct {
	cfg      Config
	sym      *misr.Symbolic
	pendingX int
	res      Result
	// elim is the halt's elimination scratch, reused across halts.
	elim eliminator

	// Observability handles, nil (no-op) unless Observe was called. They
	// are touched only at halt/finish boundaries, never per shift cycle,
	// so the cycle-level hot path is identical with and without them.
	obsHalts      *obs.Counter
	obsDeficits   *obs.Counter
	obsSignatures *obs.Counter
	obsXRetired   *obs.Counter
	obsCycles     *obs.Counter
	// cyclesFlushed is how many shift cycles were already added to
	// obsCycles, so repeated Finish calls (and shared recorders across
	// sessions) accumulate instead of double-counting.
	cyclesFlushed int
}

// NewCanceler returns a controller for the configuration.
func NewCanceler(cfg Config) (*Canceler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sym, err := misr.NewSymbolic(cfg.MISR, cfg.MISR.Size)
	if err != nil {
		return nil, err
	}
	return &Canceler{cfg: cfg, sym: sym}, nil
}

// Observe registers rec to receive the controller's session counters:
// xcancel.halts, xcancel.deficits, xcancel.signatures (the X-free
// eliminations extracted), xcancel.x.retired and xcancel.shift.cycles. A
// nil rec (or never calling Observe) leaves observation disabled; the
// counters are only updated at halts and Finish, so per-cycle shifting
// costs nothing either way.
func (c *Canceler) Observe(rec *obs.Recorder) {
	c.obsHalts = rec.Counter("xcancel.halts")
	c.obsDeficits = rec.Counter("xcancel.deficits")
	c.obsSignatures = rec.Counter("xcancel.signatures")
	c.obsXRetired = rec.Counter("xcancel.x.retired")
	c.obsCycles = rec.Counter("xcancel.shift.cycles")
}

// MustNewCanceler is NewCanceler that panics on error.
func MustNewCanceler(cfg Config) *Canceler {
	c, err := NewCanceler(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Shift feeds one compactor input slice (width m) for one shift cycle.
func (c *Canceler) Shift(in logic.Vector) error {
	if len(in) != c.cfg.MISR.Size {
		return fmt.Errorf("xcancel: input width %d, want %d", len(in), c.cfg.MISR.Size)
	}
	var known, xs uint64
	for i, v := range in {
		known |= uint64(v&1) << uint(i)
		xs |= uint64(v>>1) << uint(i)
	}
	c.ShiftWord(known, xs)
	return nil
}

// ShiftWord feeds one shift cycle's packed compactor output: bit i of xs
// marks MISR input i as X, and bit i of known is input i's known value (it
// is ignored where xs is set). Bits at or above m must be zero.
func (c *Canceler) ShiftWord(known, xs uint64) {
	n := bits.OnesCount64(xs)
	c.pendingX += n
	c.res.TotalX += n
	c.sym.ClockWord(known, xs)
	c.res.ShiftCycles++
	if c.pendingX >= c.cfg.MISR.Size-c.cfg.Q {
		c.halt()
	}
}

// halt extracts X-free combinations and retires the pending symbols.
func (c *Canceler) halt() {
	cols := c.sym.Columns()
	sels := c.elim.nullSelections(cols, c.cfg.MISR.Size)
	h := Halt{Cycle: c.res.ShiftCycles, XRetired: c.pendingX}
	take := c.cfg.Q
	if len(sels) < take {
		h.Deficit = take - len(sels)
		take = len(sels)
	}
	h.Signatures = make([]Signature, take)
	known := c.sym.Known()
	for k, sel := range sels[:take] {
		for _, col := range cols {
			if bits.OnesCount64(col&sel)&1 != 0 {
				panic("xcancel: extracted combination is not X-free")
			}
		}
		h.Signatures[k] = Signature{Selection: sel, Parity: bits.OnesCount64(known&sel) & 1}
	}
	// The register is reset after read-out, as in the time-multiplexed
	// X-canceling MISR: the next session starts clean.
	c.sym.Reset()
	c.pendingX = 0
	c.res.Halts = append(c.res.Halts, h)
	c.res.ControlBits += c.cfg.MISR.Size * c.cfg.Q
	if !c.cfg.Shadow {
		c.res.HaltCycles += c.cfg.Q
	}
	c.obsHalts.Inc()
	c.obsDeficits.Add(int64(h.Deficit))
	c.obsSignatures.Add(int64(len(h.Signatures)))
	c.obsXRetired.Add(int64(h.XRetired))
}

// eliminator finds X-free combinations of a symbolic MISR's signature bits
// with word operations. Its buffers are reused across calls.
type eliminator struct {
	// rows holds the m x t dependence matrix, row i in words
	// [i*stride, (i+1)*stride) with symbol j at bit j%64 of word j/64.
	rows []uint64
	// ops[i] is the combination of original signature bits that row i
	// holds: bit k set iff original row k was XORed in.
	ops []uint64
}

// nullSelections returns the X-free combinations of the m signature bits
// whose dependence columns are cols (bit i of cols[j] set iff bit i depends
// on symbol j), as m-bit selection words. It runs gf2.Eliminate's
// reduced-row-echelon elimination with its pivot order, so the selections
// and their order are those gf2.NullCombinations returns for the same
// matrix. The result aliases the eliminator's scratch and is valid until the
// next call.
func (e *eliminator) nullSelections(cols []uint64, m int) []uint64 {
	t := len(cols)
	stride := (t + 63) / 64
	if cap(e.rows) < m*stride {
		e.rows = make([]uint64, m*stride)
	}
	rows := e.rows[:m*stride]
	clear(rows)
	for j, col := range cols {
		w, b := j/64, uint64(1)<<uint(j%64)
		for ; col != 0; col &= col - 1 {
			rows[bits.TrailingZeros64(col)*stride+w] |= b
		}
	}
	if cap(e.ops) < m {
		e.ops = make([]uint64, m)
	}
	ops := e.ops[:m]
	for i := range ops {
		ops[i] = 1 << uint(i)
	}
	rank := 0
	for col := 0; col < t && rank < m; col++ {
		w, b := col/64, uint64(1)<<uint(col%64)
		pivot := rank
		for pivot < m && rows[pivot*stride+w]&b == 0 {
			pivot++
		}
		if pivot == m {
			continue
		}
		pr := rows[rank*stride : (rank+1)*stride]
		if pivot != rank {
			pv := rows[pivot*stride : (pivot+1)*stride]
			for k := range pr {
				pr[k], pv[k] = pv[k], pr[k]
			}
			ops[rank], ops[pivot] = ops[pivot], ops[rank]
		}
		// Rows at or below rank are zero left of col, so the pivot row's
		// words before w are zero and the XOR can start at w.
		for i := 0; i < m; i++ {
			if i == rank || rows[i*stride+w]&b == 0 {
				continue
			}
			ri := rows[i*stride : (i+1)*stride]
			for k := w; k < stride; k++ {
				ri[k] ^= pr[k]
			}
			ops[i] ^= ops[rank]
		}
		rank++
	}
	return ops[rank:]
}

// Finish performs a final halt if X symbols are pending, records the
// end-of-test signature, and returns the run summary. The controller can
// keep shifting afterwards; Finish is idempotent when no X's are pending.
func (c *Canceler) Finish() Result {
	if c.pendingX > 0 {
		c.halt()
	}
	c.res.FinalSignature = c.sym.Known()
	c.obsCycles.Add(int64(c.res.ShiftCycles - c.cyclesFlushed))
	c.cyclesFlushed = c.res.ShiftCycles
	return c.res
}

// PendingX returns the number of X symbols accumulated since the last halt.
func (c *Canceler) PendingX() int { return c.pendingX }

// Known returns the known-contribution part of the MISR state.
func (c *Canceler) Known() uint64 { return c.sym.Known() }

// RunResponses shifts every response of the set through a fresh canceler
// (the scan geometry's chain count must equal the MISR size) and returns the
// run summary. This is the end-to-end demonstration path; large designs use
// the closed-form accounting instead.
func RunResponses(cfg Config, s *scan.ResponseSet) (Result, error) {
	return RunResponsesObs(cfg, s, nil)
}

// RunResponsesObs is RunResponses with the session's halt/deficit/
// signature counters and wall time recorded on rec (nil disables).
func RunResponsesObs(cfg Config, s *scan.ResponseSet, rec *obs.Recorder) (Result, error) {
	if s.Geom.Chains != cfg.MISR.Size {
		return Result{}, fmt.Errorf("xcancel: %d chains but %d-input MISR", s.Geom.Chains, cfg.MISR.Size)
	}
	c, err := NewCanceler(cfg)
	if err != nil {
		return Result{}, err
	}
	c.Observe(rec)
	defer rec.Span("xcancel.run")()
	// The chains feed the MISR inputs directly: an identity compactor.
	tree, err := compactor.NewModulo(cfg.MISR.Size, cfg.MISR.Size)
	if err != nil {
		return Result{}, err
	}
	packed, err := s.Pack()
	if err != nil {
		return Result{}, err
	}
	known := make([]uint64, packed.Patterns()*s.Geom.ChainLen)
	xs := make([]uint64, len(known))
	var counts compactor.FoldCounts
	for b := 0; b < packed.Blocks(); b++ {
		if err := tree.FoldBlock(packed, b, nil, known, xs, &counts); err != nil {
			return Result{}, err
		}
	}
	for i := range known {
		c.ShiftWord(known[i], xs[i])
	}
	return c.Finish(), nil
}
