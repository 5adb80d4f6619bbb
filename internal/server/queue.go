package server

import (
	"context"
	"errors"
	"slices"
	"sync"
)

// errQueueFull reports a request that found every job slot busy and the
// wait queue at capacity; the handler answers 503 + Retry-After.
var errQueueFull = errors.New("server: job queue full")

// slotQueue is the admission controller of the serving layer: at most
// `capacity` partition jobs run at once, at most `maxWait` requests wait
// for a slot, and waiting requests are granted slots in arrival order.
//
// Everything is decided under one mutex. A lock-free fast path could see
// every slot busy, lose the race with a release, and then reject the
// request against a full wait count while capacity sat idle; here slot
// state and the wait list change together, so a request is rejected only
// when the queue really is full at that instant (locked by
// TestAcquireReleaseBurstRace). A release hands its slot straight to the
// oldest waiter, so waiters exist only while every slot is busy.
type slotQueue struct {
	mu       sync.Mutex
	capacity int
	maxWait  int
	running  int
	waiters  []chan struct{} // FIFO; a waiter's channel closes on its grant
}

// newSlotQueue returns a queue of capacity slots (at least 1) and at most
// maxWait waiters; a negative maxWait lets none wait.
func newSlotQueue(capacity, maxWait int) *slotQueue {
	return &slotQueue{capacity: capacity, maxWait: maxWait}
}

// acquire blocks until the request is granted a job slot, the wait queue
// is full (errQueueFull), or ctx is done (its error). A nil return must be
// paired with release.
func (q *slotQueue) acquire(ctx context.Context) error {
	q.mu.Lock()
	if q.running < q.capacity {
		q.running++
		q.mu.Unlock()
		return nil
	}
	if len(q.waiters) >= q.maxWait {
		q.mu.Unlock()
		return errQueueFull
	}
	ready := make(chan struct{})
	q.waiters = append(q.waiters, ready)
	q.mu.Unlock()

	select {
	case <-ready:
	case <-ctx.Done():
	}
	if ctx.Err() == nil {
		return nil // granted
	}
	// The request ended while it waited, or before it woke to its grant:
	// leave the wait list, or hand the granted slot to the next waiter.
	q.mu.Lock()
	defer q.mu.Unlock()
	if i := slices.Index(q.waiters, ready); i >= 0 {
		q.waiters = slices.Delete(q.waiters, i, i+1)
	} else {
		q.releaseLocked()
	}
	return ctx.Err()
}

// release returns a slot, handing it to the oldest waiter if any.
func (q *slotQueue) release() {
	q.mu.Lock()
	q.releaseLocked()
	q.mu.Unlock()
}

func (q *slotQueue) releaseLocked() {
	if len(q.waiters) == 0 {
		q.running--
		return
	}
	close(q.waiters[0])
	q.waiters = q.waiters[1:]
}

// depth reports the running and waiting request counts (scrape-time
// gauges).
func (q *slotQueue) depth() (running, waiting int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return int64(q.running), int64(len(q.waiters))
}
