package core

import (
	"fmt"
	"math/rand"
)

// Strategy is the pluggable split-selection rule of the partitioner. The
// engine owns everything else — delta pricing, the accept gate (a split
// commits only when it strictly lowers the standard mask+cancel cost),
// state interning, checkpointing and the final accounting — so a Strategy
// only decides which splits to try, in which order, each round.
//
// Implementations must be safe for concurrent use by independent runs: a
// built-in Strategy is a shared singleton and Select receives all per-run
// state through the Selection. Select is called once per round; the engine
// tries the returned candidates in order and commits the first one the cost
// function accepts. Returning no candidates ends the run.
//
// Checkpoint/resume needs no cooperation from a Strategy: the engine
// replays the recorded attempt trace, which captures selection outcomes,
// not selection logic. The one exception is a strategy that consumes
// Params.Seed rng draws — implement RoundReplayer to restore the stream
// position on resume.
type Strategy interface {
	// Name is the canonical registry name — the wire vocabulary of the
	// facade, flow specs, jobs and the HTTP API, and the string checkpoints
	// record.
	Name() string
	// Select returns the round's candidate splits in preference order.
	Select(sc *Selection) []Split
}

// RoundReplayer is implemented by strategies whose Select consumes
// Params.Seed rng draws (one per attempted round). On resume the engine
// calls ReplayRound once per recorded round so the continuation sees the
// rng stream exactly where the uninterrupted run would have left it. An
// error marks the checkpoint as not replayable under this strategy.
type RoundReplayer interface {
	ReplayRound(rng *rand.Rand, r Round) error
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

// strategyName names the resolved strategy (checkpoints record it).
func (p Params) strategyName() string { return p.strategy().Name() }

// The built-in strategies. The three paper-family selectors and the greedy
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
	// StrategyPaperRetry extends Algorithm 1: when the best group's split
	// is rejected by the cost function, the next candidate groups (up to
	// RetryBudget) are tried before giving up — the paper stops at the
	// first rejection.
	StrategyPaperRetry Strategy = paperRetryStrategy{}
)

type paperStrategy struct{}

func (paperStrategy) Name() string   { return "paper" }
func (paperStrategy) String() string { return "paper" }
func (s paperStrategy) Select(sc *Selection) []Split {
	if cand := sc.e.selectPaper(sc.live, false, sc.rng); cand != nil {
		return []Split{*cand}
	}
	return nil
}

type paperRandomStrategy struct{}

func (paperRandomStrategy) Name() string   { return "paper-random" }
func (paperRandomStrategy) String() string { return "paper-random" }
func (s paperRandomStrategy) Select(sc *Selection) []Split {
	if cand := sc.e.selectPaper(sc.live, true, sc.rng); cand != nil {
		return []Split{*cand}
	}
	return nil
}

// ReplayRound consumes the one draw selectPaper spent on the recorded
// attempt — Intn(len(group.Cells)), with Round.GroupSize recording the
// group size — restoring the rng stream for the continuation.
func (paperRandomStrategy) ReplayRound(rng *rand.Rand, r Round) error {
	if r.GroupSize < 1 {
		return fmt.Errorf("round %d records group size %d under paper-random", r.Round, r.GroupSize)
	}
	rng.Intn(r.GroupSize)
	return nil
}

type paperRetryStrategy struct{}

func (paperRetryStrategy) Name() string   { return "paper-retry" }
func (paperRetryStrategy) String() string { return "paper-retry" }
func (s paperRetryStrategy) Select(sc *Selection) []Split {
	return sc.e.selectPaperList(sc.live, sc.e.params.retryBudget())
}

type greedyStrategy struct{}

func (greedyStrategy) Name() string   { return "greedy-cost" }
func (greedyStrategy) String() string { return "greedy-cost" }
func (s greedyStrategy) Select(sc *Selection) []Split {
	if cand := sc.e.selectGreedy(sc.live, sc.masked, sc.maskBits, sc.cost); cand != nil {
		return []Split{*cand}
	}
	return nil
}
