package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"reflect"
	"testing"

	"xhybrid"
)

// randIndices returns an ascending index list of n entries whose gaps mix
// one-byte deltas with gaps above 2^14 (three-byte varints), starting at 0
// when zero is set.
func randIndices(r *rand.Rand, n int, zero bool) []int {
	out := make([]int, n)
	next := 0
	if !zero {
		next = 1 + r.Intn(100)
	}
	for i := range out {
		out[i] = next
		if r.Intn(4) == 0 {
			next += 1<<14 + r.Intn(1<<16)
		} else {
			next += 1 + r.Intn(40)
		}
	}
	return out
}

// TestPackedPlanRoundTrip: unpacking a packed plan rebuilds it exactly —
// nil and empty lists kept apart, index 0, gaps above 2^14, up to 40
// partitions, a nil or empty round trace — and every unpack is a fresh plan
// that shares nothing with the cache or with the plan that was put.
func TestPackedPlanRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	plans := []*xhybrid.Plan{
		{},
		{Partitions: []xhybrid.PartitionInfo{}, Rounds: []xhybrid.RoundInfo{}},
		{Partitions: []xhybrid.PartitionInfo{{}}},
		{Partitions: []xhybrid.PartitionInfo{{Patterns: []int{0}, MaskedCells: []int{}}}},
		{Partitions: []xhybrid.PartitionInfo{{Patterns: []int{0, 1 << 14, 1<<14 + 1, 1 << 30}, MaskedCells: []int{5}, MaskedX: 5}}},
	}
	for trial := 0; trial < 50; trial++ {
		p := &xhybrid.Plan{
			TotalX: r.Intn(1 << 20), MaskedX: r.Intn(1 << 20), ResidualX: r.Intn(1 << 20),
			MaskBits: r.Int(), CancelBits: r.Int(), TotalBits: r.Int(),
			MaskOnlyBits: r.Int(), CancelOnlyBits: r.Int(),
			ImprovementOverMaskOnly: r.Float64(), ImprovementOverCancelOnly: r.Float64(),
			TestTimeCancelOnly: r.Float64(), TestTimeHybrid: r.Float64(), TestTimeImprovement: r.Float64(),
		}
		for i := r.Intn(40); i > 0; i-- {
			p.Partitions = append(p.Partitions, xhybrid.PartitionInfo{
				Patterns:    randIndices(r, r.Intn(60), r.Intn(3) == 0),
				MaskedCells: randIndices(r, r.Intn(60), r.Intn(3) == 0),
				MaskedX:     r.Intn(1 << 20),
			})
		}
		for i := r.Intn(8); i > 0; i-- {
			p.Rounds = append(p.Rounds, xhybrid.RoundInfo{
				Round: r.Intn(100), SplitCell: r.Intn(1 << 20),
				CostBefore: r.Int(), CostAfter: r.Int(), Accepted: r.Intn(2) == 0,
			})
		}
		plans = append(plans, p)
	}
	for i, p := range plans {
		want, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		c := newResultCache(1<<30, nil)
		c.put("k", p)
		got, ok := c.get("k")
		if !ok {
			t.Fatalf("plan %d: not cached", i)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("plan %d: round trip differs:\ngot  %+v\nwant %+v", i, got, p)
		}
		// Scribbling over the unpacked plan and the original must reach
		// neither the cache nor the next unpack.
		for j := range got.Partitions {
			for k := range got.Partitions[j].Patterns {
				got.Partitions[j].Patterns[k] = -1
			}
			for k := range p.Partitions[j].MaskedCells {
				p.Partitions[j].MaskedCells[k] = -1
			}
		}
		for j := range got.Rounds {
			got.Rounds[j].Round = -1
			p.Rounds[j].CostAfter = -1
		}
		again, _ := c.get("k")
		if b, _ := json.Marshal(again); !bytes.Equal(b, want) {
			t.Fatalf("plan %d: a caller's writes reached the cache", i)
		}
	}
}

// TestCacheHitBodiesMatchMiss: the bodies served from the packed cache equal
// the ones computed on the miss, for a multi-partition plan: the JSON
// envelope's plan and design byte for byte, and the text body (verbose, so
// every round is printed) in full.
func TestCacheHitBodiesMatchMiss(t *testing.T) {
	x, err := xhybrid.Workload("ckt-b16", 1)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := x.WriteBinary(&body); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{})
	const target = "/v1/partition?m=32&q=7&strategy=greedy-cost"
	miss := post(t, s, target, body.Bytes(), nil)
	hit := post(t, s, target, body.Bytes(), nil)
	if miss.Code != http.StatusOK || hit.Code != http.StatusOK {
		t.Fatalf("status %d/%d: %s", miss.Code, hit.Code, miss.Body.String())
	}
	if miss.Header().Get("X-Cache") != "miss" || hit.Header().Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache %q then %q, want miss then hit", miss.Header().Get("X-Cache"), hit.Header().Get("X-Cache"))
	}
	type envelope struct {
		Digest string          `json:"digest"`
		Design json.RawMessage `json:"design"`
		Plan   json.RawMessage `json:"plan"`
	}
	var m, h envelope
	if err := json.Unmarshal(miss.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(hit.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	var plan xhybrid.Plan
	if err := json.Unmarshal(m.Plan, &plan); err != nil {
		t.Fatal(err)
	}
	if len(plan.Partitions) < 3 {
		t.Fatalf("fixture plan has %d partitions; the test needs several", len(plan.Partitions))
	}
	if m.Digest != h.Digest || !bytes.Equal(m.Design, h.Design) || !bytes.Equal(m.Plan, h.Plan) {
		t.Fatalf("hit JSON differs from miss:\nmiss %s\nhit  %s", m.Plan, h.Plan)
	}

	const textTarget = target + "&format=text&verbose=1"
	// The JSON miss filled the entry, so both text bodies are hits; render
	// the miss-side text from the plan the miss computed.
	var want bytes.Buffer
	computed, err := xhybrid.Partition(x, xhybrid.Options{MISRSize: 32, Q: 7, Strategy: "greedy-cost"})
	if err != nil {
		t.Fatal(err)
	}
	if err := computed.WriteText(&want, x, true); err != nil {
		t.Fatal(err)
	}
	got := post(t, s, textTarget, body.Bytes(), nil)
	if got.Header().Get("X-Cache") != "hit" {
		t.Fatalf("text X-Cache = %q, want hit", got.Header().Get("X-Cache"))
	}
	if got.Body.String() != want.String() {
		t.Fatalf("hit text differs from the computed plan's:\n--- want ---\n%s--- got ---\n%s", want.String(), got.Body.String())
	}
}
