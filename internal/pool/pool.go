// Package pool provides a small reusable worker pool for deterministic
// data-parallel fan-out. The hybrid pipeline's hot loops — candidate-split
// scoring, per-partition masked-X recomputation, per-cell X counting,
// per-partition X-canceling — are all independent per element, so they chunk
// an index range over a fixed set of workers and reduce the per-chunk
// results in chunk order. Because every reduction is position-indexed (never
// ordered by goroutine completion), results are byte-identical for any
// worker count, including 1.
//
// The pool is safe for nested use: a task running on a pool worker may fan
// out on the same pool. Submission never blocks — when every worker is busy
// the submitting goroutine runs the chunk inline — so nesting cannot
// deadlock, it only degrades to inline execution.
//
// This package implements the deterministic parallel execution engine of
// DESIGN.md §7 (an infrastructure extension beyond the paper; the
// algorithms it accelerates are §5.2-§5.4).
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed-size set of reusable workers. The zero value is not
// usable; call New. A Pool with one worker runs everything inline on the
// calling goroutine and spawns nothing.
type Pool struct {
	workers int
	tasks   chan func()
	wg      sync.WaitGroup

	// dispatched counts chunks handed to a parked worker; inline counts
	// chunks the submitter ran itself because every worker was busy. The
	// inline share is the saturation signal the observability layer
	// reports ("queue depth" of a queueless pool).
	dispatched atomic.Int64
	inline     atomic.Int64
}

// New returns a pool with the given number of workers; workers <= 0 selects
// runtime.GOMAXPROCS(0). The pool keeps workers-1 goroutines parked (the
// calling goroutine always contributes itself), so Close must be called to
// release them.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.tasks = make(chan func())
		for i := 0; i < workers-1; i++ {
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				for task := range p.tasks {
					task()
				}
			}()
		}
	}
	return p
}

// Workers returns the pool's worker count (always >= 1).
func (p *Pool) Workers() int { return p.workers }

// Stats returns how many chunks were dispatched to parked workers and how
// many ran inline on the submitter because every worker was busy. Safe to
// call concurrently with fan-outs.
func (p *Pool) Stats() (dispatched, inline int64) {
	return p.dispatched.Load(), p.inline.Load()
}

// Close releases the pool's goroutines. It must not be called concurrently
// with Chunks/ForEach; after Close the pool runs everything inline.
func (p *Pool) Close() {
	if p.tasks != nil {
		close(p.tasks)
		p.wg.Wait()
		p.tasks = nil
	}
}

// chunks returns the number of ranges [0,n) is split into: min(workers, n).
func (p *Pool) chunks(n int) int {
	if n < p.workers {
		return n
	}
	return p.workers
}

// Chunks splits [0,n) into chunks(n) contiguous ranges and invokes
// fn(c, lo, hi) once per range, concurrently when workers are idle. Chunk 0
// always runs on the calling goroutine. fn must be safe for concurrent
// invocation on distinct ranges; Chunks returns after every chunk finished.
func (p *Pool) Chunks(n int, fn func(c, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := p.chunks(n)
	if w <= 1 || p.tasks == nil {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for c := 1; c < w; c++ {
		c, lo, hi := c, c*n/w, (c+1)*n/w
		wg.Add(1)
		task := func() {
			defer wg.Done()
			fn(c, lo, hi)
		}
		select {
		case p.tasks <- task:
			p.dispatched.Add(1)
		default:
			// Every worker is busy (e.g. a nested fan-out): run inline.
			p.inline.Add(1)
			task()
		}
	}
	fn(0, 0, n/w)
	wg.Wait()
}

// ForEach invokes fn(i) for every i in [0,n), fanned out over the workers.
// fn must be safe for concurrent invocation on distinct indices.
func (p *Pool) ForEach(n int, fn func(i int)) {
	p.Chunks(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
