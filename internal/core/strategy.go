package core

import "math/rand"

// Strategy is the pluggable split-selection rule of the partitioner. The
// engine owns everything else — delta pricing, the accept gate (a split
// commits only when it strictly lowers the standard mask+cancel cost), the
// per-partition memos and the final accounting — so a Strategy only decides
// which split to try each round.
//
// Implementations must be safe for concurrent use by independent runs: a
// built-in Strategy is a shared singleton and Select receives all per-run
// state through the Selection. Select is called once per round; the engine
// prices the returned split, commits it if the cost function accepts it
// and otherwise stops. Returning false ends the run.
type Strategy interface {
	// Name is the canonical registry name — the wire vocabulary of the
	// facade, flow specs, jobs and the HTTP API.
	Name() string
	// Select returns the round's split, or false when there is none.
	Select(sc *Selection) (Split, bool)
}

// Split is one candidate partitioning step: cut partition Partition (an
// index into the current live list) on scan cell Cell. GroupSize and
// GroupCount describe the equal-count group the cell came from for the
// paper-family heuristics; both are 0 for strategies that do not select via
// groups.
type Split struct {
	Partition  int
	Cell       int
	GroupSize  int
	GroupCount int
}

// Selection is the engine's per-round view handed to Strategy.Select: the
// live partitions, the running cost totals and the seeded rng. The
// built-in strategies read it directly and call into the evaluator's
// memoized state; the engine never mutates the Selection while a Select
// call is in flight.
type Selection struct {
	e        *evaluator
	live     []*partState
	masked   int
	maskBits int
	cost     int
	rng      *rand.Rand
}

// set points the Selection at the round's state (one allocation per run,
// refreshed per round).
func (sc *Selection) set(live []*partState, masked, maskBits, cost int) {
	sc.live, sc.masked, sc.maskBits, sc.cost = live, masked, maskBits, cost
}

// strategy resolves Params.Strategy, defaulting to StrategyPaper so the
// zero Params keeps selecting the paper's deterministic heuristic.
func (p Params) strategy() Strategy {
	if p.Strategy == nil {
		return StrategyPaper
	}
	return p.Strategy
}

// The built-in strategies. The two paper-family selectors and the greedy
// selector call straight into the evaluator's private machinery — they are
// the same code paths the pre-registry engine dispatched to, so plans and
// cost accounting are byte-identical to the enum era (locked by the golden
// fixtures).
var (
	// StrategyPaper follows Algorithm 1: among all current partitions, take
	// the largest group of cells sharing an in-partition X count (at least
	// two cells), and split on its lowest-indexed member. Deterministic.
	StrategyPaper Strategy = paperStrategy{}
	// StrategyPaperRandom is StrategyPaper but picks a random member of the
	// winning group, as the paper's example does ("we randomly select one
	// of 3 scan cells"). Seeded via Params.Seed.
	StrategyPaperRandom Strategy = paperRandomStrategy{}
	// StrategyGreedyCost ignores the group heuristic and evaluates the
	// actual cost delta of every distinct candidate split, applying the
	// best one. More expensive per round; used for the ablation study.
	StrategyGreedyCost Strategy = greedyStrategy{}
)

type paperStrategy struct{}

func (paperStrategy) Name() string   { return "paper" }
func (paperStrategy) String() string { return "paper" }
func (paperStrategy) Select(sc *Selection) (Split, bool) {
	return sc.e.selectPaper(sc.live, false, sc.rng)
}

type paperRandomStrategy struct{}

func (paperRandomStrategy) Name() string   { return "paper-random" }
func (paperRandomStrategy) String() string { return "paper-random" }
func (paperRandomStrategy) Select(sc *Selection) (Split, bool) {
	return sc.e.selectPaper(sc.live, true, sc.rng)
}

type greedyStrategy struct{}

func (greedyStrategy) Name() string   { return "greedy-cost" }
func (greedyStrategy) String() string { return "greedy-cost" }
func (greedyStrategy) Select(sc *Selection) (Split, bool) {
	return sc.e.selectGreedy(sc.live, sc.masked, sc.maskBits, sc.cost)
}
