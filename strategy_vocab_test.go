package xhybrid_test

import (
	"errors"
	"strings"
	"testing"

	"xhybrid"
	"xhybrid/internal/core"
	"xhybrid/internal/flow"
	"xhybrid/internal/jobs"
)

// vocabSpec builds a flow spec that is valid except (possibly) for its
// strategy name.
func vocabSpec(strategy string) flow.Spec {
	return flow.Spec{Cells: 64, Chains: 8, MISRSize: 8, Q: 3, Strategy: strategy}
}

// surfaces are every layer that turns a wire strategy name into a runnable
// strategy. Each returns the canonical name it resolved to, or an error.
// The xhybrid command goes through the facade; stratbench calls
// core.LookupStrategy directly, so the core row covers it.
var surfaces = []struct {
	name    string
	resolve func(strategy string) (string, error)
}{
	{"core", func(s string) (string, error) {
		strat, err := core.LookupStrategy(s)
		if err != nil {
			return "", err
		}
		return strat.Name(), nil
	}},
	{"facade", func(s string) (string, error) {
		norm, err := xhybrid.Options{Strategy: s}.Normalized()
		if err != nil {
			return "", err
		}
		return norm.Strategy, nil
	}},
	{"flow", func(s string) (string, error) {
		spec := vocabSpec(s)
		spec.Normalize()
		if err := spec.Validate(); err != nil {
			return "", err
		}
		return spec.Strategy, nil
	}},
	{"jobs", func(s string) (string, error) {
		norm, err := jobs.Options{Strategy: s}.Normalized()
		if err != nil {
			return "", err
		}
		return norm.Strategy, nil
	}},
}

// TestStrategyVocabularyAcrossSurfaces is the drift lock: the facade, the
// flow pipeline, the jobs spool and the CLI path (core.LookupStrategy) must
// accept exactly the registry vocabulary — canonical names, aliases, and
// the empty default — and canonicalize every accepted spelling identically.
// Before the registry, four independent string switches answered this
// question four different ways ("greedy" vs "greedy-cost").
func TestStrategyVocabularyAcrossSurfaces(t *testing.T) {
	type want struct{ in, canonical string }
	cases := []want{{"", "paper"}}
	for _, name := range core.StrategyNames() {
		cases = append(cases, want{name, name})
	}
	for alias, canonical := range core.StrategyAliases() {
		cases = append(cases, want{alias, canonical})
	}
	for _, sf := range surfaces {
		for _, c := range cases {
			got, err := sf.resolve(c.in)
			if err != nil {
				t.Errorf("%s rejected %q: %v", sf.name, c.in, err)
				continue
			}
			if got != c.canonical {
				t.Errorf("%s resolved %q to %q, want %q", sf.name, c.in, got, c.canonical)
			}
		}
	}
}

// TestStrategyVocabularyRejection asserts every surface rejects an unknown
// name with an error that wraps core.ErrUnknownStrategy and enumerates the
// full accepted vocabulary — the contract that makes a typo on any surface
// self-documenting.
func TestStrategyVocabularyRejection(t *testing.T) {
	for _, sf := range surfaces {
		_, err := sf.resolve("simulated-annealing")
		if err == nil {
			t.Errorf("%s accepted an unknown strategy", sf.name)
			continue
		}
		if !errors.Is(err, core.ErrUnknownStrategy) {
			t.Errorf("%s error %v does not wrap ErrUnknownStrategy", sf.name, err)
		}
		for _, name := range core.StrategyVocabulary() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%s error %q does not enumerate %q", sf.name, err, name)
			}
		}
	}
}

// TestFacadeVocabularyExports pins the facade's re-exports to the registry,
// so client code can enumerate strategies without importing internal/core.
func TestFacadeVocabularyExports(t *testing.T) {
	names := xhybrid.Strategies()
	if len(names) != len(core.StrategyNames()) {
		t.Fatalf("facade exports %v, registry has %v", names, core.StrategyNames())
	}
	for i, n := range core.StrategyNames() {
		if names[i] != n {
			t.Fatalf("facade exports %v, registry has %v", names, core.StrategyNames())
		}
	}
	if !errors.Is(xhybrid.ErrUnknownStrategy, core.ErrUnknownStrategy) {
		t.Fatal("facade ErrUnknownStrategy is not core's")
	}
	if got := xhybrid.StrategyAliases()["greedy"]; got != "greedy-cost" {
		t.Fatalf(`facade alias "greedy" = %q`, got)
	}
}
