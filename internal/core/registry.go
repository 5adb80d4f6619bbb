package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// The strategy registry is the single source of the strategy-name
// vocabulary. Every surface that turns a wire name into a Strategy — the
// xhybrid facade and command, flow specs, the jobs spool, the HTTP API,
// stratbench — resolves through LookupStrategy, so every built-in strategy
// is accepted everywhere and an unknown name fails everywhere with the same
// enumerating error. (Before the registry the vocabulary lived in four
// independent string switches, and one benchmark harness had already
// drifted: it spelled greedy-cost where the other surfaces spelled greedy.)
var (
	registry = map[string]Strategy{
		StrategyPaper.Name():       StrategyPaper,
		StrategyPaperRandom.Name(): StrategyPaperRandom,
		StrategyGreedyCost.Name():  StrategyGreedyCost,
		StrategyPaperRetry.Name():  StrategyPaperRetry,
	}
	// aliases maps accepted alternate spellings onto canonical names.
	// "greedy" predates the registry as the facade/flow/jobs wire spelling
	// of greedy-cost; old spooled jobs and client scripts still carry it.
	// Aliases never appear as Strategy.Name(): spool records and reports
	// always carry the canonical spelling.
	aliases = map[string]string{"greedy": "greedy-cost"}
)

// ErrUnknownStrategy reports a strategy name no registered strategy or
// alias matches; match with errors.Is. The message enumerates the valid
// names so every surface's error (including HTTP 400 bodies) tells the
// caller what would have been accepted.
var ErrUnknownStrategy = errors.New("unknown strategy")

// LookupStrategy resolves a wire name to a registered Strategy. The empty
// name selects the default ("paper", matching the zero Params); aliases
// resolve to their canonical strategy. Unknown names return an error
// wrapping ErrUnknownStrategy that enumerates the accepted vocabulary.
func LookupStrategy(name string) (Strategy, error) {
	if name == "" {
		name = "paper"
	}
	if canonical, ok := aliases[name]; ok {
		name = canonical
	}
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (valid: %s)", ErrUnknownStrategy, name, strings.Join(StrategyVocabulary(), ", "))
	}
	return s, nil
}

// StrategyNames returns the sorted canonical names of every registered
// strategy.
func StrategyNames() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// StrategyAliases returns the accepted alternate spellings mapped to their
// canonical names.
func StrategyAliases() map[string]string {
	out := make(map[string]string, len(aliases))
	for a, c := range aliases {
		out[a] = c
	}
	return out
}

// StrategyVocabulary returns every accepted spelling — canonical names and
// aliases — sorted. This is the exact set LookupStrategy accepts (plus the
// empty default).
func StrategyVocabulary() []string {
	vocab := StrategyNames()
	for a := range aliases {
		vocab = append(vocab, a)
	}
	sort.Strings(vocab)
	return vocab
}
