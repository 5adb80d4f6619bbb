package sim

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"xhybrid/internal/logic"
	"xhybrid/internal/netlist"
)

// adder builds a combinational full adder captured into 2 scan flops:
// sum = a^b^cin, carry = ab | cin(a^b).
func adder(t *testing.T) *netlist.Circuit {
	b := netlist.NewBuilder("fa")
	a := b.Input("a")
	bb := b.Input("b")
	cin := b.Input("cin")
	axb := b.Gate(netlist.Xor, a, bb)
	sum := b.Gate(netlist.Xor, axb, cin)
	ab := b.Gate(netlist.And, a, bb)
	c2 := b.Gate(netlist.And, cin, axb)
	carry := b.Gate(netlist.Or, ab, c2)
	b.ScanDFF(sum)
	b.ScanDFF(carry)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAdderTruthTable(t *testing.T) {
	c := adder(t)
	s := New(c)
	load := logic.Vector{logic.Zero, logic.Zero}
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			for ci := 0; ci < 2; ci++ {
				pis := logic.Vector{logic.FromBit(a), logic.FromBit(b), logic.FromBit(ci)}
				cap, _, err := s.Capture(load, pis, NoFault)
				if err != nil {
					t.Fatal(err)
				}
				wantSum := logic.FromBit(a ^ b ^ ci)
				wantCarry := logic.FromBit((a & b) | (ci & (a ^ b)))
				if cap[0] != wantSum || cap[1] != wantCarry {
					t.Fatalf("a=%d b=%d ci=%d: got %v/%v want %v/%v", a, b, ci, cap[0], cap[1], wantSum, wantCarry)
				}
			}
		}
	}
}

func TestXPropagationThroughAdder(t *testing.T) {
	c := adder(t)
	s := New(c)
	load := logic.Vector{logic.Zero, logic.Zero}
	// a=X, b=0, cin=0: sum=X, carry=0 (AND with 0 blocks the X).
	cap, _, err := s.Capture(load, logic.Vector{logic.X, logic.Zero, logic.Zero}, NoFault)
	if err != nil {
		t.Fatal(err)
	}
	if cap[0] != logic.X || cap[1] != logic.Zero {
		t.Fatalf("got %v, want [X 0]", cap)
	}
}

// Tri-state X source: enable=0 floats.
func TestTriStateX(t *testing.T) {
	b := netlist.NewBuilder("tri")
	en := b.Input("en")
	d := b.Input("d")
	tri := b.Gate(netlist.Tri, en, d)
	b.ScanDFF(tri)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(c)
	cases := []struct {
		en, d, want logic.V
	}{
		{logic.One, logic.One, logic.One},
		{logic.One, logic.Zero, logic.Zero},
		{logic.One, logic.X, logic.X},
		{logic.Zero, logic.One, logic.X},
		{logic.X, logic.One, logic.X},
	}
	for _, tc := range cases {
		cap, _, err := s.Capture(logic.Vector{logic.Zero}, logic.Vector{tc.en, tc.d}, NoFault)
		if err != nil {
			t.Fatal(err)
		}
		if cap[0] != tc.want {
			t.Fatalf("tri(en=%v,d=%v) = %v, want %v", tc.en, tc.d, cap[0], tc.want)
		}
	}
}

func TestNonScanIsX(t *testing.T) {
	b := netlist.NewBuilder("ns")
	pi := b.Input("pi")
	ns := b.NonScanDFF(pi)
	g := b.Gate(netlist.Xor, ns, pi)
	b.ScanDFF(g)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(c)
	cap, _, err := s.Capture(logic.Vector{logic.Zero}, logic.Vector{logic.One}, NoFault)
	if err != nil {
		t.Fatal(err)
	}
	if cap[0] != logic.X {
		t.Fatalf("uninitialized element did not produce X: %v", cap[0])
	}
}

func TestTieGates(t *testing.T) {
	b := netlist.NewBuilder("tie")
	_ = b.Input("pi")
	t0 := b.Gate(netlist.Tie0)
	t1 := b.Gate(netlist.Tie1)
	tx := b.Gate(netlist.TieX)
	b.ScanDFF(t0)
	b.ScanDFF(t1)
	b.ScanDFF(tx)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(c)
	cap, _, err := s.Capture(logic.NewVector(3), logic.Vector{logic.Zero}, NoFault)
	if err != nil {
		t.Fatal(err)
	}
	want := logic.Vector{logic.Zero, logic.One, logic.X}
	if !cap.Equal(want) {
		t.Fatalf("ties = %v, want %v", cap, want)
	}
}

func TestFaultInjectionChangesOutput(t *testing.T) {
	c := adder(t)
	s := New(c)
	load := logic.Vector{logic.Zero, logic.Zero}
	pis := logic.Vector{logic.One, logic.Zero, logic.Zero} // sum=1, carry=0
	good, _, err := s.Capture(load, pis, NoFault)
	if err != nil {
		t.Fatal(err)
	}
	// Stuck-at-0 on input a: sum flips to 0.
	faulty, _, err := s.Capture(load, pis, Fault{Node: c.PIs[0], StuckAt: logic.Zero})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Equal(good) {
		t.Fatal("fault produced identical response")
	}
	if faulty[0] != logic.Zero {
		t.Fatalf("faulty sum = %v, want 0", faulty[0])
	}
}

func TestCaptureValidation(t *testing.T) {
	c := adder(t)
	s := New(c)
	if _, _, err := s.Capture(logic.NewVector(1), logic.NewVector(3), NoFault); err == nil {
		t.Fatal("accepted bad load width")
	}
	if _, _, err := s.Capture(logic.NewVector(2), logic.NewVector(2), NoFault); err == nil {
		t.Fatal("accepted bad pi width")
	}
}

// randomVec returns a random 0/1/X vector with xProb X's.
func randomVec(r *rand.Rand, n int, xProb float64) logic.Vector {
	v := make(logic.Vector, n)
	for i := range v {
		switch {
		case r.Float64() < xProb:
			v[i] = logic.X
		case r.Intn(2) == 1:
			v[i] = logic.One
		default:
			v[i] = logic.Zero
		}
	}
	return v
}

// The parallel-pattern simulator must agree with the scalar simulator on
// every pattern, including X handling, for random generated circuits of up
// to ~600 scan cells, so the 256-cell pack and unpack tiles repeat and end
// part-full. One PSim runs three consecutive batches — 64 patterns, then
// 1..63, both with X-dense loads, then 64 with sparse X's — so an X lane
// left over from an earlier batch or tile would show. Each batch goes
// through CaptureBlock and then Capture: the block's unpacked captures,
// Capture's and the scalar simulator's must all be equal.
func TestParallelMatchesScalar(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, err := netlist.Generate(netlist.GenConfig{
			Name:      "rnd",
			ScanCells: 8 + r.Intn(600),
			PIs:       1 + r.Intn(8),
			XClusters: r.Intn(4),
			Seed:      seed,
		})
		if err != nil {
			return false
		}
		ps := NewParallel(c)
		ss := New(c)
		for _, batch := range []struct {
			n     int
			xProb float64
		}{{64, 0.3}, {1 + r.Intn(63), 0.3}, {64, 0.02}} {
			n := batch.n
			loads := make([]logic.Vector, n)
			pis := make([]logic.Vector, n)
			for k := 0; k < n; k++ {
				loads[k] = randomVec(r, len(c.ScanCells), batch.xProb)
				pis[k] = randomVec(r, len(c.PIs), batch.xProb)
			}
			blk, err := ps.CaptureBlock(loads, pis)
			if err != nil || blk.Patterns() != n {
				return false
			}
			unpacked := blk.Captures()
			captured, err := ps.Capture(loads, pis)
			if err != nil || len(captured) != n || len(unpacked) != n {
				return false
			}
			for k := 0; k < n; k++ {
				cap, _, err := ss.Capture(loads[k], pis[k], NoFault)
				if err != nil {
					return false
				}
				if !cap.Equal(captured[k]) || !cap.Equal(unpacked[k]) {
					t.Logf("seed %d, batch of %d, pattern %d: scalar %v, Capture %v, block %v",
						seed, n, k, cap, captured[k], unpacked[k])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelValidation(t *testing.T) {
	c := adder(t)
	ps := NewParallel(c)
	if _, err := ps.Capture(nil, nil); err == nil {
		t.Fatal("accepted empty batch")
	}
	loads := make([]logic.Vector, 65)
	pis := make([]logic.Vector, 65)
	for i := range loads {
		loads[i] = logic.NewVector(2)
		pis[i] = logic.NewVector(3)
	}
	if _, err := ps.Capture(loads, pis); err == nil {
		t.Fatal("accepted batch > 64")
	}
	if _, err := ps.Capture(loads[:2], pis[:3]); err == nil {
		t.Fatal("accepted mismatched batch sizes")
	}
	if _, err := CaptureBlocks(context.Background(), c, loads[:2], pis[:3], 1); err == nil {
		t.Fatal("CaptureBlocks accepted mismatched stimuli")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CaptureBlocks(ctx, c, loads, pis, 1); err == nil {
		t.Fatal("CaptureBlocks ignored a canceled context")
	}
}

// Generated circuits must show pattern-dependent X capture: some scan cell
// captures X under some loads and a known value under others.
func TestGeneratedXIsPatternDependent(t *testing.T) {
	c, err := netlist.Generate(netlist.GenConfig{
		Name: "xdep", ScanCells: 48, PIs: 6, XClusters: 3, XFanout: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(c)
	r := rand.New(rand.NewSource(1))
	sawX := make([]bool, len(c.ScanCells))
	sawKnown := make([]bool, len(c.ScanCells))
	for p := 0; p < 64; p++ {
		cap, _, err := s.Capture(randomVec(r, len(c.ScanCells), 0), randomVec(r, len(c.PIs), 0), NoFault)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range cap {
			if v == logic.X {
				sawX[i] = true
			} else {
				sawKnown[i] = true
			}
		}
	}
	both := 0
	for i := range sawX {
		if sawX[i] && sawKnown[i] {
			both++
		}
	}
	if both == 0 {
		t.Fatal("no scan cell captures pattern-dependent X's")
	}
}
