package server

import (
	"context"
	"sync"
	"testing"
	"time"
)

// waitDepth spins until the queue reports the wanted waiting count.
func waitDepth(t *testing.T, q *slotQueue, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, waiting := q.depth(); waiting == want {
			return
		}
		if time.Now().After(deadline) {
			_, waiting := q.depth()
			t.Fatalf("queue waiting = %d, want %d", waiting, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestAcquireReleaseBurstRace provokes the window the old channel-based
// jobQueue lost: with zero wait capacity and exactly `capacity` concurrent
// callers, a slot freed between the fast-path miss and the overflow check
// produced a spurious errQueueFull while capacity sat idle. Under the
// single-mutex queue every such acquire must succeed; one rejection fails
// the test.
func TestAcquireReleaseBurstRace(t *testing.T) {
	const capacity = 4
	q := newSlotQueue(capacity, 0)
	var wg sync.WaitGroup
	for g := 0; g < capacity; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if err := q.acquire(context.Background()); err != nil {
					t.Errorf("iteration %d: %d callers on %d slots got %v", i, capacity, capacity, err)
					return
				}
				q.release()
			}
		}()
	}
	wg.Wait()
	if running, waiting := q.depth(); running != 0 || waiting != 0 {
		t.Fatalf("queue leaked state: running=%d waiting=%d", running, waiting)
	}
}

// TestSlotQueueFIFO pins the admission order: with the one slot held,
// waiters are granted in arrival order, a request beyond the wait cap is
// refused, and a waiter whose context ends before it wakes to its grant
// hands the slot to the next waiter instead of keeping it.
func TestSlotQueueFIFO(t *testing.T) {
	q := newSlotQueue(1, 3)
	if err := q.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Three waiters, queued one at a time so arrival order is fixed. Each
	// reports its grant and holds the slot until told to release it.
	granted := make(chan int, 3)
	proceed := make([]chan struct{}, 3)
	var wg sync.WaitGroup
	for i := range proceed {
		proceed[i] = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := q.acquire(context.Background()); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			granted <- i
			<-proceed[i]
			q.release()
		}()
		waitDepth(t, q, int64(i+1))
	}
	if err := q.acquire(context.Background()); err != errQueueFull {
		t.Fatalf("acquire beyond the wait cap = %v, want errQueueFull", err)
	}
	q.release()
	for i := range proceed {
		if got := <-granted; got != i {
			t.Fatalf("grant %d went to waiter %d, want arrival order", i, got)
		}
		close(proceed[i])
	}
	wg.Wait()

	// Hand-off: the grant and the end of the first waiter's context land
	// together (under the queue's lock) before it wakes, so it must pass
	// the slot to the second waiter and report its context error.
	if err := q.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() { first <- q.acquire(ctx) }()
	waitDepth(t, q, 1)
	second := make(chan error, 1)
	go func() { second <- q.acquire(context.Background()) }()
	waitDepth(t, q, 2)
	q.mu.Lock()
	cancel()
	q.releaseLocked()
	q.mu.Unlock()
	if err := <-first; err != context.Canceled {
		t.Fatalf("first waiter = %v, want context.Canceled", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("second waiter = %v, want the handed-on slot", err)
	}
	q.release()
	if running, waiting := q.depth(); running != 0 || waiting != 0 {
		t.Fatalf("queue leaked state: running=%d waiting=%d", running, waiting)
	}
}
