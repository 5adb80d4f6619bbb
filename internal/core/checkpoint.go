package core

import (
	"errors"
	"fmt"
	"math/rand"
)

// CheckpointVersion is the current checkpoint format version. A checkpoint
// carrying any other version is rejected with ErrCheckpointMismatch, so a
// format change can never be half-read as the wrong fields.
const CheckpointVersion = 1

// ErrCheckpointMismatch reports a checkpoint that cannot be replayed onto
// this run: wrong format version, different strategy/seed/dimensions, a
// trace whose costs do not re-derive under the engine, or a final state
// whose digest disagrees with the recorded one. Callers holding older
// checkpoints (the job spool keeps the previous one) should fall back to
// the next older checkpoint, or to a from-scratch run; match with
// errors.Is.
var ErrCheckpointMismatch = errors.New("core: checkpoint does not match this run")

// Checkpoint captures the committed progress of a partitioning run at a
// round boundary. It is pure data — JSON-serializable, no engine state —
// because resume does not restore memory images: RunCtx replays the
// recorded attempt trace through the interned-state engine (the same
// splitStates/delta-pricing path the live loop uses), verifying every
// recorded cost on the way, and then continues selection exactly where the
// original run left off. Since every later decision depends only on the
// live partition contents, the running totals and the RNG stream position —
// all of which the replay restores bit-for-bit — the resumed run's plan is
// byte-identical to an uninterrupted one.
type Checkpoint struct {
	// Version is CheckpointVersion at write time.
	Version int `json:"version"`
	// Strategy and Seed echo the originating Params; resume refuses a
	// checkpoint taken under different selection rules.
	Strategy string `json:"strategy"`
	Seed     int64  `json:"seed"`
	// Patterns and Cells echo the X-map dimensions.
	Patterns int `json:"patterns"`
	Cells    int `json:"cells"`
	// Rounds is the full attempt trace up to the checkpoint — accepted and
	// rejected rounds both, since rejected attempts consume round numbers
	// (and, for paper-retry, precede the accepted one). Checkpoints are
	// only emitted immediately after a commit, so the trace always ends
	// with an accepted round.
	Rounds []Round `json:"rounds"`
	// Masked, MaskBits and Cost are the running totals after the trace;
	// replay re-derives and verifies them.
	Masked   int `json:"masked"`
	MaskBits int `json:"maskBits"`
	Cost     int `json:"cost"`
	// StateDigest is a 64-bit content hash over the live partition bitsets
	// in partition order — the replay's end-state witness.
	StateDigest uint64 `json:"stateDigest"`
}

// liveDigest hashes the live partition list by content and order. Two runs
// holding the same partitions in the same order always digest equal; the
// boost-style combine keeps permutations and near-misses apart in practice
// (and replay additionally verifies every recorded cost, so the digest is a
// second witness, not the only one).
func liveDigest(live []*partState) uint64 {
	h := uint64(len(live)) * 0x9e3779b97f4a7c15
	for _, st := range live {
		h ^= st.part.Hash() + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	return h
}

// checkpoint assembles the current committed state as a Checkpoint. The
// rounds slice is cloned: the caller keeps appending to its own.
func (e *evaluator) checkpoint(live []*partState, rounds []Round, masked, maskBits, cost int) *Checkpoint {
	return &Checkpoint{
		Version:     CheckpointVersion,
		Strategy:    e.params.strategyName(),
		Seed:        e.params.Seed,
		Patterns:    e.m.Patterns(),
		Cells:       e.m.Cells(),
		Rounds:      append([]Round(nil), rounds...),
		Masked:      masked,
		MaskBits:    maskBits,
		Cost:        cost,
		StateDigest: liveDigest(live),
	}
}

// mismatch wraps ErrCheckpointMismatch with a reason.
func mismatch(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCheckpointMismatch, fmt.Sprintf(format, args...))
}

// replay re-applies a checkpoint's attempt trace onto a fresh run. Every
// recorded round is re-priced through the interned-state engine (the same
// delta pricing the live loop uses) and checked against the recorded costs
// and verdict; accepted rounds commit exactly as the live loop commits.
// For StrategyPaperRandom one rng draw per recorded round restores the
// stream to the position the uninterrupted run would have — selectPaper
// draws Intn(len(group.Cells)) once per attempt, and Round.GroupSize
// records that group size. Any disagreement returns ErrCheckpointMismatch
// and the caller falls back rather than continuing from a state the engine
// cannot vouch for.
//
// On success it returns the rebuilt live list, the trace, the running
// totals and the next round number, leaving the evaluator's intern caches
// warm for the continuation.
func (e *evaluator) replay(cp *Checkpoint, root *partState, rng *rand.Rand) (live []*partState, rounds []Round, masked, maskBits, cost, round int, err error) {
	fail := func(ferr error) ([]*partState, []Round, int, int, int, int, error) {
		return nil, nil, 0, 0, 0, 0, ferr
	}
	if cp.Version != CheckpointVersion {
		return fail(mismatch("version %d, want %d", cp.Version, CheckpointVersion))
	}
	if got := e.params.strategyName(); cp.Strategy != got {
		return fail(mismatch("strategy %q, run uses %q", cp.Strategy, got))
	}
	if cp.Seed != e.params.Seed {
		return fail(mismatch("seed %d, run uses %d", cp.Seed, e.params.Seed))
	}
	if cp.Patterns != e.m.Patterns() || cp.Cells != e.m.Cells() {
		return fail(mismatch("X-map %dx%d, run has %dx%d", cp.Patterns, cp.Cells, e.m.Patterns(), e.m.Cells()))
	}
	if n := len(cp.Rounds); n > 0 && !cp.Rounds[n-1].Accepted {
		// Checkpoints are emitted right after a commit; a trailing rejected
		// round means the file does not come from this engine's sink.
		return fail(mismatch("trace ends with a rejected round"))
	}

	live = []*partState{root}
	masked = root.maskedX
	maskBits = e.contrib(root)
	cost = maskBits + e.cancelBits(masked)
	for i, r := range cp.Rounds {
		if err := e.err(); err != nil {
			return fail(err)
		}
		if r.Round != i+1 {
			return fail(mismatch("round %d recorded as %d", i+1, r.Round))
		}
		if r.SplitPartition < 0 || r.SplitPartition >= len(live) {
			return fail(mismatch("round %d splits partition %d of %d", r.Round, r.SplitPartition, len(live)))
		}
		if _, ok := e.m.CellPatterns(r.SplitCell); !ok {
			return fail(mismatch("round %d splits on cell %d, which captures no X", r.Round, r.SplitCell))
		}
		parent := live[r.SplitPartition]
		xs, rs := e.splitStates(parent, r.SplitCell)
		e.obsDelta.Inc()
		newMasked := masked - parent.maskedX + xs.maskedX + rs.maskedX
		newMaskBits := maskBits - e.contrib(parent) + e.contrib(xs) + e.contrib(rs)
		newCost := newMaskBits + e.cancelBits(newMasked)
		if r.CostBefore != cost || r.CostAfter != newCost || r.Accepted != (newCost < cost) {
			return fail(mismatch("round %d re-derives as cost %d->%d (accepted=%v), recorded %d->%d (accepted=%v)",
				r.Round, cost, newCost, newCost < cost, r.CostBefore, r.CostAfter, r.Accepted))
		}
		if rr, ok := e.params.strategy().(RoundReplayer); ok {
			// Consume the draws the original selection spent on this
			// attempt, restoring the stream for the continuation.
			if rerr := rr.ReplayRound(rng, r); rerr != nil {
				return fail(mismatch("%s", rerr))
			}
		}
		if r.Accepted {
			xs.ensureIndex(e, parent)
			rs.ensureIndex(e, parent)
			live = append(live, nil)
			copy(live[r.SplitPartition+2:], live[r.SplitPartition+1:])
			live[r.SplitPartition] = xs
			live[r.SplitPartition+1] = rs
			masked, maskBits, cost = newMasked, newMaskBits, newCost
		}
	}
	if masked != cp.Masked || maskBits != cp.MaskBits || cost != cp.Cost {
		return fail(mismatch("replayed totals masked=%d maskBits=%d cost=%d, recorded %d/%d/%d",
			masked, maskBits, cost, cp.Masked, cp.MaskBits, cp.Cost))
	}
	if d := liveDigest(live); d != cp.StateDigest {
		return fail(mismatch("replayed state digest %#x, recorded %#x", d, cp.StateDigest))
	}
	rounds = append([]Round(nil), cp.Rounds...)
	return live, rounds, masked, maskBits, cost, len(cp.Rounds), nil
}
