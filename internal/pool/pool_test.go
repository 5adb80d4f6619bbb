package pool

import (
	"sync/atomic"
	"testing"
)

func TestWorkersDefault(t *testing.T) {
	p := New(0)
	defer p.Close()
	if p.Workers() < 1 {
		t.Fatalf("Workers() = %d, want >= 1", p.Workers())
	}
	if New(1).Workers() != 1 || New(7).Workers() != 7 {
		t.Fatal("explicit worker counts not honored")
	}
}

func TestChunksCoverRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 33} {
		p := New(workers)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			seen := make([]int32, n)
			p.ForEach(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
			for i, s := range seen {
				if s != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, s)
				}
			}
		}
		p.Close()
	}
}

func TestChunkIndicesDisjoint(t *testing.T) {
	p := New(4)
	defer p.Close()
	const n = 101
	var calls int32
	lohis := make([][2]int, p.chunks(n))
	p.Chunks(n, func(c, lo, hi int) {
		atomic.AddInt32(&calls, 1)
		lohis[c] = [2]int{lo, hi}
	})
	if int(calls) != len(lohis) {
		t.Fatalf("chunks called %d times, want %d", calls, len(lohis))
	}
	next := 0
	for c, lh := range lohis {
		if lh[0] != next || lh[1] <= lh[0] {
			t.Fatalf("chunk %d = [%d,%d), want contiguous from %d", c, lh[0], lh[1], next)
		}
		next = lh[1]
	}
	if next != n {
		t.Fatalf("chunks end at %d, want %d", next, n)
	}
}

// Nested fan-out on one pool must complete (inline fallback, no deadlock)
// and still visit every index exactly once.
func TestNestedFanOut(t *testing.T) {
	p := New(4)
	defer p.Close()
	const outer, inner = 16, 64
	visits := make([]int, outer*inner)
	p.ForEach(outer, func(i int) {
		p.ForEach(inner, func(j int) { visits[i*inner+j]++ })
	})
	for k, v := range visits {
		if v != 1 {
			t.Fatalf("index %d visited %d times, want 1", k, v)
		}
	}
}

// After Close the pool still works, inline.
func TestUseAfterClose(t *testing.T) {
	p := New(4)
	p.Close()
	vals := make([]int, 100)
	p.ForEach(100, func(i int) { vals[i] = i })
	sum := 0
	for _, v := range vals {
		sum += v
	}
	if sum != 4950 {
		t.Fatalf("sum after Close = %d, want 4950", sum)
	}
}
