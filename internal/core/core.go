// Package core implements the paper's contribution: reducing the control-bit
// overhead of a hybrid X-masking / X-canceling-MISR architecture by
// partitioning the test-pattern set.
//
// The partitioner (Algorithm 1) exploits the inter-correlation of X
// locations: it repeatedly picks a scan cell from the largest group of cells
// sharing the same X count and splits the pattern set into the patterns
// where that cell captures an X and the rest. Every partition shares one
// X-mask (a cell is masked only if it is X under every pattern of the
// partition, so no observable value is lost), and the X's that no mask
// removes are retired by the X-canceling MISR. A cost function — the total
// control bits of masks plus canceling — decides when another round of
// partitioning stops paying for itself.
//
// This package implements DESIGN.md §5.2 (Algorithm 1: candidate grouping,
// split selection, cost check, and the strategy variants) and §5.4 (the
// hybrid pipeline from X-map to ControlBitReport).
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"xhybrid/internal/gf2"
	"xhybrid/internal/obs"
	"xhybrid/internal/pool"
	"xhybrid/internal/scan"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
	"xhybrid/internal/xmask"
)

// Sentinel errors returned (wrapped) by Run and Evaluate; match with
// errors.Is.
var (
	// ErrGeometryMismatch reports an X-map whose cell count differs from
	// Params.Geom.
	ErrGeometryMismatch = errors.New("core: X-map geometry mismatch")
	// ErrEmptyPatterns reports an X-map with no test patterns.
	ErrEmptyPatterns = errors.New("core: empty pattern set")
)

// Params configures a hybrid evaluation.
type Params struct {
	// Geom is the scan geometry; mask control bits cost Geom.Cells() per
	// partition ("longest scan chain length * number of scan chains").
	Geom scan.Geometry
	// Cancel is the X-canceling MISR configuration (m, q).
	Cancel xcancel.Config
	// Strategy selects the split-selection rule (see the Strategy interface
	// and the registry in registry.go); nil selects StrategyPaper.
	Strategy Strategy
	// Seed seeds StrategyPaperRandom's cell choice.
	Seed int64
	// MaxRounds caps accepted partitioning rounds; 0 means unlimited.
	MaxRounds int
	// MaskBitsPerPartition overrides the control-bit price of one mask
	// image (0 = the paper's Geom.Cells()). Lower prices model compressed
	// mask delivery (see internal/xmask encoders) and shift the cost
	// optimum toward more partitions.
	MaskBitsPerPartition int
	// Workers bounds the goroutines that score candidate splits, enumerate
	// and group partitions and count per-cell X's; 0 means
	// runtime.GOMAXPROCS(0). Every parallel reduction is deterministic, so
	// results are byte-identical for any worker count.
	Workers int
	// Obs receives the run's counters and stage spans (rounds, candidate
	// splits scored, masked-X recomputes, pool saturation). nil disables
	// observation at no cost to the hot loops.
	Obs *obs.Recorder
}

// workers resolves the effective worker count.
func (p Params) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// maskImageBits returns the control-bit price of one partition mask.
func (p Params) maskImageBits() int {
	if p.MaskBitsPerPartition > 0 {
		return p.MaskBitsPerPartition
	}
	return p.Geom.Cells()
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if err := p.Geom.Validate(); err != nil {
		return err
	}
	if err := p.Cancel.Validate(); err != nil {
		return err
	}
	if p.Strategy != nil && p.Strategy.Name() == "" {
		return fmt.Errorf("core: strategy with empty name")
	}
	if p.MaxRounds < 0 {
		return fmt.Errorf("core: negative MaxRounds")
	}
	if p.MaskBitsPerPartition < 0 {
		return fmt.Errorf("core: negative MaskBitsPerPartition")
	}
	if p.Workers < 0 {
		return fmt.Errorf("core: negative Workers")
	}
	return nil
}

// Partition is one group of test patterns sharing a mask.
type Partition struct {
	// Patterns selects the member patterns.
	Patterns gf2.Vec
	// Mask is the shared X-mask (never masks an observable value).
	Mask xmask.Mask
	// MaskedX is the number of X values the mask removes across the
	// partition's patterns.
	MaskedX int
}

// Size returns the number of patterns in the partition.
func (p Partition) Size() int { return p.Patterns.PopCount() }

// Round records one partitioning round for tracing and tests.
type Round struct {
	// Round is the 1-based round number.
	Round int
	// SplitPartition indexes the partition (before the split) that was cut.
	SplitPartition int
	// SplitCell is the selected scan cell.
	SplitCell int
	// GroupSize and GroupCount describe the equal-count group the cell came
	// from (group size = member cells, count = shared X count); both are 0
	// for StrategyGreedyCost.
	GroupSize  int
	GroupCount int
	// CostBefore and CostAfter are the total control bits around the split.
	CostBefore int
	CostAfter  int
	// Accepted reports whether the split was kept (cost decreased).
	Accepted bool
}

// Result is the outcome of partitioning plus the full hybrid accounting.
type Result struct {
	// Partitions are the final pattern partitions with their masks.
	Partitions []Partition
	// Rounds is the trace, including a final rejected round if the cost
	// function terminated the process.
	Rounds []Round

	// TotalX is the number of X's in the responses.
	TotalX int
	// MaskedX is the number of X's removed by the partition masks.
	MaskedX int
	// ResidualX = TotalX - MaskedX flows into the X-canceling MISR.
	ResidualX int

	// MaskBits is the masking control-bit volume (cells * partitions).
	MaskBits int
	// CancelBits is the X-canceling control-bit volume for ResidualX.
	CancelBits int
	// TotalBits = MaskBits + CancelBits.
	TotalBits int
}

// evaluator carries the shared state of one partitioning run. Its pool fans
// the per-partition and per-candidate loops out over Params.Workers
// goroutines; every reduction is deterministic, so the evaluator produces
// identical results for any worker count. It keeps no cache of its own:
// every memo lives on the partIndex of the partition it describes.
type evaluator struct {
	m      *xmap.XMap
	params Params
	totalX int
	pool   *pool.Pool

	// cols is the run's column table and all the list of every column
	// (DESIGN §5.2), the narrowing source of a partition with no indexed
	// parent; both are read-only after newEvaluator.
	cols colTable
	all  colIndex

	// ctx aborts the run; done caches ctx.Done() so the hot loops can poll
	// with one channel select instead of a ctx.Err() mutex round-trip. A
	// nil done channel (context.Background) never fires.
	ctx  context.Context
	done <-chan struct{}

	// Cached observability handles (nil when params.Obs is nil, which
	// makes every recording below a single-branch no-op).
	obsRounds      *obs.Counter
	obsAccepted    *obs.Counter
	obsScored      *obs.Counter
	obsRecomputes  *obs.Counter
	obsStateHits   *obs.Counter
	obsStateMisses *obs.Counter
	obsGroupHits   *obs.Counter
	obsGroupMisses *obs.Counter
	obsDelta       *obs.Counter
	obsFull        *obs.Counter
	obsIndexBuilds *obs.Counter
	obsIndexCells  *obs.Counter
	obsScanCols    *obs.Counter
}

// newEvaluator builds the run state; the caller must Close the evaluator's
// pool when done.
func newEvaluator(ctx context.Context, m *xmap.XMap, params Params) *evaluator {
	// The column table forces the X-map's lazy cell reindex at this serial
	// point, before the pool fans XCells readers out over worker goroutines.
	cols := newColTable(m)
	return &evaluator{
		m:      m,
		params: params,
		totalX: m.TotalX(),
		pool:   pool.New(params.workers()),
		cols:   cols,
		all:    cols.allColumns(),
		ctx:    ctx,
		done:   ctx.Done(),

		obsRounds:      params.Obs.Counter("core.rounds"),
		obsAccepted:    params.Obs.Counter("core.rounds.accepted"),
		obsScored:      params.Obs.Counter("core.splits.scored"),
		obsRecomputes:  params.Obs.Counter("core.maskedx.recomputes"),
		obsStateHits:   params.Obs.Counter("core.state.cache.hits"),
		obsStateMisses: params.Obs.Counter("core.state.cache.misses"),
		obsGroupHits:   params.Obs.Counter("core.groups.cache.hits"),
		obsGroupMisses: params.Obs.Counter("core.groups.cache.misses"),
		obsDelta:       params.Obs.Counter("core.score.delta"),
		obsFull:        params.Obs.Counter("core.score.full"),
		obsIndexBuilds: params.Obs.Counter("core.cellindex.builds"),
		obsIndexCells:  params.Obs.Counter("core.cellindex.cells.scanned"),
		obsScanCols:    params.Obs.Counter("core.scan.columns"),
	}
}

// close releases the pool and flushes the pool saturation stats.
func (e *evaluator) close() {
	if d, inl := e.pool.Stats(); d+inl > 0 {
		e.params.Obs.Set("core.pool.chunks.dispatched", d)
		e.params.Obs.Set("core.pool.chunks.inline", inl)
	}
	e.params.Obs.Set("core.pool.workers", int64(e.pool.Workers()))
	e.pool.Close()
}

// canceled reports whether the run's context has been canceled. One channel
// poll, so the hot loops can call it at every unit of work; a Background
// context compiles down to a select on a nil channel.
func (e *evaluator) canceled() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// err maps cancellation onto the error Run returns: nil
// while the context is live, a wrapped context error (matching
// errors.Is(err, context.Canceled/DeadlineExceeded)) once it is done.
func (e *evaluator) err() error {
	if err := e.ctx.Err(); err != nil {
		return fmt.Errorf("core: run aborted: %w", err)
	}
	return nil
}

// cancelCheckMask spaces the cancellation polls of the per-column loops: one
// channel select every 64 columns keeps the abort latency in the
// microseconds while staying invisible next to the word work per column.
const cancelCheckMask = 63
