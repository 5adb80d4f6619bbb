package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestRegistryContents pins the shipped vocabulary: four canonical
// strategies plus the legacy "greedy" spelling. Growing this list is fine;
// renaming or dropping a name breaks spooled jobs, so the test spells the
// whole set out.
func TestRegistryContents(t *testing.T) {
	wantNames := []string{"greedy-cost", "paper", "paper-random", "paper-retry"}
	if got := StrategyNames(); !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("StrategyNames() = %v, want %v", got, wantNames)
	}
	wantAliases := map[string]string{"greedy": "greedy-cost"}
	if got := StrategyAliases(); !reflect.DeepEqual(got, wantAliases) {
		t.Fatalf("StrategyAliases() = %v, want %v", got, wantAliases)
	}
	wantVocab := []string{"greedy", "greedy-cost", "paper", "paper-random", "paper-retry"}
	if got := StrategyVocabulary(); !reflect.DeepEqual(got, wantVocab) {
		t.Fatalf("StrategyVocabulary() = %v, want %v", got, wantVocab)
	}
}

func TestLookupStrategy(t *testing.T) {
	// Every canonical name resolves to a strategy reporting that name.
	for _, name := range StrategyNames() {
		s, err := LookupStrategy(name)
		if err != nil {
			t.Fatalf("LookupStrategy(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("LookupStrategy(%q).Name() = %q", name, s.Name())
		}
	}
	// Aliases resolve to their canonical strategy, never echo the alias.
	for alias, canonical := range StrategyAliases() {
		s, err := LookupStrategy(alias)
		if err != nil {
			t.Fatalf("LookupStrategy(%q): %v", alias, err)
		}
		if s.Name() != canonical {
			t.Fatalf("alias %q resolved to %q, want %q", alias, s.Name(), canonical)
		}
	}
	// The empty name is the paper default.
	s, err := LookupStrategy("")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "paper" {
		t.Fatalf(`LookupStrategy("") = %q, want paper`, s.Name())
	}
}

// TestLookupStrategyUnknown locks the error contract: errors.Is matches
// ErrUnknownStrategy and the message enumerates every accepted spelling, so
// surfaces that wrap it (facade, flow, jobs, HTTP 400 bodies) inherit the
// enumeration for free.
func TestLookupStrategyUnknown(t *testing.T) {
	_, err := LookupStrategy("simulated-annealing")
	if err == nil {
		t.Fatal("accepted unknown strategy")
	}
	if !errors.Is(err, ErrUnknownStrategy) {
		t.Fatalf("error %v does not wrap ErrUnknownStrategy", err)
	}
	for _, name := range StrategyVocabulary() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not enumerate %q", err, name)
		}
	}
}

// TestRegistryConsistency holds the two fixed tables to the invariants the
// lookup relies on: every strategy is keyed by its own non-empty name, no
// alias shadows a canonical name, and every alias targets a registered
// strategy.
func TestRegistryConsistency(t *testing.T) {
	for name, s := range registry {
		if name == "" || s.Name() != name {
			t.Errorf("registry key %q holds strategy named %q", name, s.Name())
		}
	}
	for alias, canonical := range aliases {
		if _, dup := registry[alias]; dup || alias == "" {
			t.Errorf("alias %q is empty or shadows a registered strategy", alias)
		}
		if _, ok := registry[canonical]; !ok {
			t.Errorf("alias %q targets unregistered strategy %q", alias, canonical)
		}
	}
}
