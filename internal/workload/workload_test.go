package workload

import (
	"testing"

	"xhybrid/internal/correlation"
	"xhybrid/internal/scan"
	"xhybrid/internal/xmap"
)

func TestValidate(t *testing.T) {
	bad := []Profile{
		{Chains: 0, ChainLen: 1, Patterns: 1},
		{Chains: 1, ChainLen: 1, Patterns: 0},
		{Chains: 1, ChainLen: 1, Patterns: 1, XDensity: 2},
		{Chains: 1, ChainLen: 1, Patterns: 1, StructuredFraction: -1},
		{Chains: 1, ChainLen: 1, Patterns: 1, OverlapFraction: 2},
		{Chains: 1, ChainLen: 1, Patterns: 1, Clusters: 1, ClusterPatterns: 0},
		{Chains: 1, ChainLen: 1, Patterns: 1, BackgroundCellFraction: -0.1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, p)
		}
	}
	if err := CKTB().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScaledGenerateDensity(t *testing.T) {
	p := Scaled(CKTB(), 10) // 7 chains x 481, 300 patterns
	m, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if m.Patterns() != 300 || m.Cells() != p.Chains*p.ChainLen {
		t.Fatalf("dims %dx%d", m.Patterns(), m.Cells())
	}
	// Density must land near the target (exact up to rounding).
	want := p.XDensity
	got := m.Density()
	if got < want*0.95 || got > want*1.05 {
		t.Fatalf("density = %f, want ~%f", got, want)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Scaled(CKTB(), 20)
	a, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("same profile, different X-maps")
	}
	p2 := p
	p2.Seed++
	c, err := p2.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Fatal("different seeds, identical X-maps")
	}
}

// The generator must produce the paper's correlation structure: large
// equal-count groups of cells sharing identical pattern signatures.
func TestClusterStructure(t *testing.T) {
	p := Scaled(CKTB(), 10)
	m, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	a := correlation.Analyze(m)
	lg, ok := a.LargestGroup()
	if !ok {
		t.Fatal("no groups")
	}
	// The largest group must be a cluster (dozens of cells), not noise.
	if lg.Size() < 20 {
		t.Fatalf("largest group has %d cells; cluster structure missing", lg.Size())
	}
	// Most of its cells share the exact same pattern signature.
	if ic := a.InterCorrelation(lg); ic < 0.8 {
		t.Fatalf("inter-correlation = %f, want >= 0.8", ic)
	}
	// X's are concentrated: 90% of X's in a small fraction of cells.
	if frac := a.ConcentrationCellFraction(0.90); frac > 0.2 {
		t.Fatalf("90%% of X's in %f of cells; want concentration", frac)
	}
}

func TestProfilesList(t *testing.T) {
	ps := Profiles()
	if len(ps) != 3 || ps[0].Name != "CKT-A" || ps[1].Name != "CKT-B" || ps[2].Name != "CKT-C" {
		t.Fatalf("Profiles = %+v", ps)
	}
	// Geometry products match the paper's scan-cell counts.
	wantCells := []int{505050, 36075, 97643}
	for i, p := range ps {
		if got := p.Chains * p.ChainLen; got != wantCells[i] {
			t.Fatalf("%s cells = %d, want %d", p.Name, got, wantCells[i])
		}
	}
}

func TestBackgroundCapacityError(t *testing.T) {
	p := Profile{
		Name: "tiny", Chains: 2, ChainLen: 2, Patterns: 4,
		XDensity: 0.9, BackgroundCellFraction: 0.1, // 1 bg cell * 4 patterns < 14 X's
	}
	if _, err := p.Generate(); err == nil {
		t.Fatal("accepted impossible background demand")
	}
}

func TestOverlapFractionSharesPatterns(t *testing.T) {
	p := Scaled(CKTB(), 10)
	p.OverlapFraction = 0.5
	if _, err := p.Generate(); err != nil {
		t.Fatal(err)
	}
}

func xmapFrom(set *scan.ResponseSet) *xmap.XMap { return xmap.FromResponses(set) }

func TestResponsesFromXMap(t *testing.T) {
	p := Scaled(CKTB(), 20)
	m, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	set, err := ResponsesFromXMap(m, p.Geometry(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if set.Patterns() != m.Patterns() {
		t.Fatal("pattern count mismatch")
	}
	if set.TotalX() != m.TotalX() {
		t.Fatalf("responses carry %d X's, map has %d", set.TotalX(), m.TotalX())
	}
	// Round trip: deriving the X-map back gives the original.
	if !xmapFrom(set).Equal(m) {
		t.Fatal("X locations not preserved")
	}
	// Geometry mismatch errors.
	if _, err := ResponsesFromXMap(m, scan.MustGeometry(1, 1), 3); err == nil {
		t.Fatal("accepted mismatched geometry")
	}
}

func TestSpatialClustersIntraCorrelation(t *testing.T) {
	p := Scaled(CKTB(), 10)
	p.SpatialClusters = true
	m, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	intra := correlation.AnalyzeIntra(m, p.Geometry())
	if intra.AdjacentFraction < 0.3 {
		t.Fatalf("spatial clusters give adjacent fraction %f, want substantial", intra.AdjacentFraction)
	}
	// The scattered default has far weaker spatial correlation.
	p2 := Scaled(CKTB(), 10)
	m2, err := p2.Generate()
	if err != nil {
		t.Fatal(err)
	}
	scattered := correlation.AnalyzeIntra(m2, p2.Geometry())
	if scattered.AdjacentFraction >= intra.AdjacentFraction {
		t.Fatalf("scattered %f not below spatial %f", scattered.AdjacentFraction, intra.AdjacentFraction)
	}
	// Density target still met.
	if d := m.Density(); d < p.XDensity*0.95 || d > p.XDensity*1.05 {
		t.Fatalf("spatial density = %f, want ~%f", d, p.XDensity)
	}
}
