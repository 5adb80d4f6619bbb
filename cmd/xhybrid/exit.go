package main

// Cleanup-aware process exit. Fatal paths used to call os.Exit directly,
// which skipped the observability teardown: a run that died after
// startObs left its -cpuprofile/-memprofile files truncated or empty
// (StartCPUProfile had the file open, but nothing ever stopped and
// flushed it). Every exit now funnels through exit(), which runs the
// registered cleanups — profile flush included — first.

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
)

// osExit is a seam for tests, which swap it to observe the exit code
// instead of losing the process.
var osExit = os.Exit

// cleanup runs its function at most once; re-entrant calls (a cleanup
// whose failure path exits again) fall through instead of deadlocking.
type cleanup struct {
	f    func()
	done atomic.Bool
}

func (c *cleanup) run() {
	if c.done.CompareAndSwap(false, true) {
		c.f()
	}
}

var (
	cleanupMu sync.Mutex
	cleanups  []*cleanup
)

// onExit registers f to run before the process exits — on fatal paths
// too. The returned closure runs it at most once and can be called
// directly for the orderly end-of-main case.
func onExit(f func()) func() {
	c := &cleanup{f: f}
	cleanupMu.Lock()
	cleanups = append(cleanups, c)
	cleanupMu.Unlock()
	return c.run
}

// resetCleanups clears the registry (tests only).
func resetCleanups() {
	cleanupMu.Lock()
	cleanups = nil
	cleanupMu.Unlock()
}

// exit runs every registered cleanup (newest first) and terminates the
// process with code.
func exit(code int) {
	cleanupMu.Lock()
	fns := make([]*cleanup, len(cleanups))
	copy(fns, cleanups)
	cleanupMu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i].run()
	}
	osExit(code)
}

// die reports a fatal error and exits through the cleanup path, so a
// failing run still flushes its profiles and prints its stats. The line
// carries one "xhybrid: " prefix, also for the facade's errors, which
// bring their own.
func die(err error) {
	fmt.Fprintln(os.Stderr, "xhybrid:", strings.TrimPrefix(err.Error(), "xhybrid: "))
	exit(1)
}
