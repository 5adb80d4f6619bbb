package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesUnits keeps BENCHMARK.json and the program in
// step: every metric the file names has the unit the program reports it in,
// every metric the program knows is named there, and the workloads are the
// ones the program runs.
func TestBenchmarkJSONMatchesUnits(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if units[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, program unit %q", m.Name, m.Unit, units[m.Name])
		}
		named[m.Name] = true
	}
	for name := range units {
		if !named[name] {
			t.Errorf("metric %s is missing from BENCHMARK.json", name)
		}
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, program workloads %v", got, want)
	}
}
