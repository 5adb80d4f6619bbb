package xhybrid

import (
	"context"
	"fmt"
	"strings"

	"xhybrid/internal/core"
	"xhybrid/internal/correlation"
	"xhybrid/internal/misr"
	"xhybrid/internal/obs"
	"xhybrid/internal/scan"
	"xhybrid/internal/workload"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
)

// Stats is the observability recorder of the hybrid pipeline: set one on
// Options.Stats and the partitioner, canceling paths and replay record
// per-stage wall time and counters (rounds, splits scored, halts, cycles
// replayed) into it. A nil *Stats disables observation with no overhead.
// Obtain a report with Snapshot.
type Stats = obs.Recorder

// NewStats returns an empty enabled recorder.
func NewStats() *Stats { return obs.New() }

// ErrUnknownStrategy reports an Options.Strategy no registered strategy or
// alias matches; match with errors.Is. The error text enumerates the valid
// names.
var ErrUnknownStrategy = core.ErrUnknownStrategy

// Strategies returns the canonical names of every registered partitioning
// strategy, sorted — the exact vocabulary Options.Strategy, flow specs,
// jobs and the HTTP API accept (plus the aliases).
func Strategies() []string { return core.StrategyNames() }

// StrategyAliases returns the accepted alternate strategy spellings mapped
// to their canonical names (the legacy "greedy" resolves to "greedy-cost").
func StrategyAliases() map[string]string { return core.StrategyAliases() }

// XLocations records which scan cells capture unknown (X) values under
// which test patterns — the only view of the output responses the paper's
// algorithms need.
type XLocations struct {
	geom scan.Geometry
	m    *xmap.XMap
}

// NewXLocations returns an empty X-location map for a design with the given
// scan geometry and pattern count.
func NewXLocations(chains, chainLen, patterns int) (*XLocations, error) {
	g, err := scan.NewGeometry(chains, chainLen)
	if err != nil {
		return nil, err
	}
	if patterns <= 0 {
		return nil, fmt.Errorf("xhybrid: non-positive pattern count %d", patterns)
	}
	return &XLocations{geom: g, m: xmap.New(patterns, g.Cells())}, nil
}

// AddX marks the scan cell at (chain, pos) as capturing an X under pattern p
// (all indices 0-based).
func (x *XLocations) AddX(p, chain, pos int) error {
	if p < 0 || p >= x.m.Patterns() {
		return fmt.Errorf("xhybrid: pattern %d out of range [0,%d)", p, x.m.Patterns())
	}
	if chain < 0 || chain >= x.geom.Chains || pos < 0 || pos >= x.geom.ChainLen {
		return fmt.Errorf("xhybrid: cell (%d,%d) outside %v", chain, pos, x.geom)
	}
	x.m.Add(p, x.geom.CellIndex(chain, pos))
	return nil
}

// FromPatternRows builds an XLocations from one response string per pattern:
// each string has one rune per scan cell in chain-major order, with 'x'/'X'
// marking unknown captures ('0', '1' and '-' mark known values).
func FromPatternRows(chains, chainLen int, rows []string) (*XLocations, error) {
	x, err := NewXLocations(chains, chainLen, len(rows))
	if err != nil {
		return nil, err
	}
	for p, row := range rows {
		clean := strings.Map(func(r rune) rune {
			if r == ' ' || r == '_' {
				return -1
			}
			return r
		}, row)
		if len(clean) != x.geom.Cells() {
			return nil, fmt.Errorf("xhybrid: pattern %d has %d cells, want %d", p, len(clean), x.geom.Cells())
		}
		for cell, r := range clean {
			switch r {
			case 'x', 'X':
				x.m.Add(p, cell)
			case '0', '1', '-':
			default:
				return nil, fmt.Errorf("xhybrid: pattern %d has invalid rune %q", p, r)
			}
		}
	}
	return x, nil
}

// Chains returns the scan-chain count.
func (x *XLocations) Chains() int { return x.geom.Chains }

// ChainLen returns the scan-chain length.
func (x *XLocations) ChainLen() int { return x.geom.ChainLen }

// Patterns returns the test-pattern count.
func (x *XLocations) Patterns() int { return x.m.Patterns() }

// Cells returns the total scan-cell count.
func (x *XLocations) Cells() int { return x.m.Cells() }

// TotalX returns the total number of X captures.
func (x *XLocations) TotalX() int { return x.m.TotalX() }

// Density returns the fraction of response bits that are X.
func (x *XLocations) Density() float64 { return x.m.Density() }

// HasX reports whether pattern p captures an X at (chain, pos).
func (x *XLocations) HasX(p, chain, pos int) bool {
	return x.m.Has(p, x.geom.CellIndex(chain, pos))
}

// Options configures Partition. The zero value selects the paper's
// configuration: a 32-bit MISR with q=7 and the deterministic Algorithm 1
// heuristic.
type Options struct {
	// MISRSize is the X-canceling MISR width m (default 32).
	MISRSize int
	// Q is the number of X-free combinations per halt (default 7).
	Q int
	// Strategy selects the split rule by its registry name: "paper"
	// (default), "paper-random" or "greedy-cost" (accepted alias
	// "greedy"). Strategies enumerates the full vocabulary; an unknown name
	// returns an error wrapping ErrUnknownStrategy that lists it.
	Strategy string
	// Seed drives "paper-random".
	Seed int64
	// MaxRounds caps accepted partitioning rounds (0 = unlimited).
	MaxRounds int
	// Workers bounds the goroutines used by the partitioning hot loops
	// (0 = all CPUs). The plan is identical for any worker count.
	Workers int
	// Stats, when non-nil, receives the pipeline's counters and per-stage
	// spans (see Stats). The hot paths pay nothing when it is nil.
	Stats *Stats
}

// Normalized returns the options with the engine defaults filled in
// (MISRSize 32, Q 7) and Strategy resolved to its canonical registry name
// ("" becomes "paper", the legacy "greedy" becomes "greedy-cost"). This is
// the one source of truth for option normalization: params derives the
// engine configuration from it, and the jobs spool and the serving layer
// normalize through it so equal submissions spool and cache equally. An
// unknown strategy returns an error wrapping ErrUnknownStrategy that
// enumerates the registry vocabulary.
func (o Options) Normalized() (Options, error) {
	if o.MISRSize == 0 {
		o.MISRSize = 32
	}
	if o.Q == 0 {
		o.Q = 7
	}
	strat, err := core.LookupStrategy(o.Strategy)
	if err != nil {
		return o, err
	}
	o.Strategy = strat.Name()
	return o, nil
}

func (o Options) params(geom scan.Geometry) (core.Params, error) {
	o, err := o.Normalized()
	if err != nil {
		return core.Params{}, fmt.Errorf("xhybrid: %w", err)
	}
	cfg, err := misr.Standard(o.MISRSize)
	if err != nil {
		return core.Params{}, err
	}
	strat, err := core.LookupStrategy(o.Strategy)
	if err != nil {
		return core.Params{}, fmt.Errorf("xhybrid: %w", err)
	}
	return core.Params{
		Geom:      geom,
		Cancel:    xcancel.Config{MISR: cfg, Q: o.Q},
		Strategy:  strat,
		Seed:      o.Seed,
		MaxRounds: o.MaxRounds,
		Workers:   o.Workers,
		Obs:       o.Stats,
	}, nil
}

// PartitionInfo describes one final pattern partition.
type PartitionInfo struct {
	// Patterns lists the member pattern indices, ascending.
	Patterns []int
	// MaskedCells lists the cells the shared mask covers, ascending.
	MaskedCells []int
	// MaskedX is the number of X's the mask removes.
	MaskedX int
}

// RoundInfo traces one partitioning round.
type RoundInfo struct {
	Round      int
	SplitCell  int
	CostBefore int
	CostAfter  int
	Accepted   bool
}

// Plan is the outcome of the hybrid flow with full accounting and the
// baseline comparison (the paper's Table 1 columns).
type Plan struct {
	Partitions []PartitionInfo
	Rounds     []RoundInfo

	TotalX    int
	MaskedX   int
	ResidualX int

	MaskBits   int
	CancelBits int
	TotalBits  int

	MaskOnlyBits   int
	CancelOnlyBits int

	ImprovementOverMaskOnly   float64
	ImprovementOverCancelOnly float64

	TestTimeCancelOnly  float64
	TestTimeHybrid      float64
	TestTimeImprovement float64
}

// Partition runs the paper's partitioning algorithm and returns the plan.
// It is PartitionCtx with a background context.
func Partition(x *XLocations, opt Options) (*Plan, error) {
	return PartitionCtx(context.Background(), x, opt)
}

// PartitionCtx is Partition under a context: canceling ctx (or passing a
// context whose deadline expires) stops the partitioner mid-round and
// returns an error matching errors.Is(err, context.Canceled) or
// context.DeadlineExceeded. The serving layer threads every request's
// context through here so a dropped connection stops compute.
func PartitionCtx(ctx context.Context, x *XLocations, opt Options) (*Plan, error) {
	params, err := opt.params(x.geom)
	if err != nil {
		return nil, err
	}
	cmp, err := core.EvaluateCtx(ctx, x.m, params)
	if err != nil {
		return nil, err
	}
	plan := &Plan{
		TotalX:                    cmp.TotalX,
		MaskedX:                   cmp.Result.MaskedX,
		ResidualX:                 cmp.Result.ResidualX,
		MaskBits:                  cmp.Result.MaskBits,
		CancelBits:                cmp.Result.CancelBits,
		TotalBits:                 cmp.Result.TotalBits,
		MaskOnlyBits:              cmp.MaskOnlyBits,
		CancelOnlyBits:            cmp.CancelOnlyBits,
		ImprovementOverMaskOnly:   cmp.ImprovementOverMask,
		ImprovementOverCancelOnly: cmp.ImprovementOverCancel,
		TestTimeCancelOnly:        cmp.TestTimeCancelOnly,
		TestTimeHybrid:            cmp.TestTimeHybrid,
		TestTimeImprovement:       cmp.TestTimeImprovement,
	}
	for _, p := range cmp.Result.Partitions {
		plan.Partitions = append(plan.Partitions, PartitionInfo{
			Patterns:    p.Patterns.Indices(),
			MaskedCells: p.Mask.Cells.Indices(),
			MaskedX:     p.MaskedX,
		})
	}
	for _, r := range cmp.Result.Rounds {
		plan.Rounds = append(plan.Rounds, RoundInfo{
			Round: r.Round, SplitCell: r.SplitCell,
			CostBefore: r.CostBefore, CostAfter: r.CostAfter, Accepted: r.Accepted,
		})
	}
	return plan, nil
}

// Analysis summarizes the X-value correlation structure (the paper's
// Section 3 statistics).
type Analysis struct {
	// XCells is the number of cells capturing at least one X.
	XCells int
	// TotalX is the total X count.
	TotalX int
	// MaxCellCount is the largest per-cell X count.
	MaxCellCount int
	// LargestGroupSize and LargestGroupCount describe the biggest group of
	// cells sharing the same X count.
	LargestGroupSize  int
	LargestGroupCount int
	// LargestGroupCorrelation is the fraction of that group sharing one
	// exact pattern signature (1.0 = perfect inter-correlation).
	LargestGroupCorrelation float64
	// CellFractionFor90PctX is the fraction of all cells holding 90% of
	// the X's ("90% of X's are captured in 4.9% of the scan cells").
	CellFractionFor90PctX float64
	// IntraAdjacentFraction is the share of X's with an X neighbor at an
	// adjacent position of the same chain in the same pattern — the
	// spatial (intra) correlation of [13].
	IntraAdjacentFraction float64
}

// Analyze runs the X-value correlation analysis.
func Analyze(x *XLocations) *Analysis {
	a := correlation.Analyze(x.m)
	out := &Analysis{
		XCells:                a.XCells,
		TotalX:                a.TotalX,
		MaxCellCount:          a.MaxCellCount(),
		CellFractionFor90PctX: a.ConcentrationCellFraction(0.90),
		IntraAdjacentFraction: correlation.AnalyzeIntra(x.m, x.geom).AdjacentFraction,
	}
	if g, ok := a.LargestGroup(); ok {
		out.LargestGroupSize = g.Size()
		out.LargestGroupCount = g.Count
		out.LargestGroupCorrelation = a.InterCorrelation(g)
	}
	return out
}

// Workload synthesizes one of the paper's industrial-design profiles:
// "ckt-a", "ckt-b" or "ckt-c", optionally scaled down as in "ckt-b4" (seed
// 0 uses the profile default).
func Workload(name string, seed int64) (*XLocations, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("xhybrid: %w", err)
	}
	if seed != 0 {
		p.Seed = seed
	}
	m, err := p.Generate()
	if err != nil {
		return nil, err
	}
	return &XLocations{geom: p.Geometry(), m: m}, nil
}

// PaperExample returns the Figure 4 fixture: 8 patterns, 5 chains of 3
// cells, 28 X's.
func PaperExample() *XLocations {
	x, err := NewXLocations(5, 3, 8)
	if err != nil {
		panic(err)
	}
	add := func(chain, pos int, patterns ...int) {
		for _, p := range patterns {
			if err := x.AddX(p-1, chain-1, pos-1); err != nil {
				panic(err)
			}
		}
	}
	add(1, 1, 1, 4, 5, 6)
	add(2, 1, 1, 4, 5, 6)
	add(3, 1, 1, 4, 5, 6)
	add(2, 3, 2, 3)
	add(4, 3, 1, 2, 3, 4, 5, 7, 8)
	add(5, 2, 1, 2, 4, 5, 7, 8)
	add(5, 3, 6)
	return x
}
