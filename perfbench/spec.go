package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is the part of BENCHMARK.json the program reads: the workloads
// and the name and unit of every metric. The file is the one list of the
// metric vocabulary. A run reports every metric its mode lists there, in
// the listed unit, and no other.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specMetric is one metric BENCHMARK.json names.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadSpec reads BENCHMARK.json from path.
func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s names no workloads, end-to-end or per-layer metrics", path)
	}
	return &s, nil
}

// hasWorkload reports whether the spec names the workload.
func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
