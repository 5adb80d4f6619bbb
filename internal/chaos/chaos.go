// Package chaos is the fault-injection harness for the job spool. It
// wraps the jobs.FS seam with deterministic, rule-driven failures —
// transient I/O errors, slow reads, dead volumes — so tests can prove the
// durability claims the spool makes: retries absorb transient faults, slow
// I/O only slows a job down, and a dead volume fails a submission cleanly.
//
// Faults are matched by operation and file base name and armed with a
// trigger count, so a scenario reads like a script: "the second rename of
// job.json fails twice, then works". Everything is mutex-guarded and
// counts are deterministic — no randomness, chaos you can replay.
package chaos

import (
	"errors"
	"io/fs"
	"os"
	"sync"
	"time"

	"xhybrid/internal/jobs"
)

// ErrInjected is the default error faults return; it is transient (the
// retry loop does not treat it as permanent).
var ErrInjected = errors.New("chaos: injected fault")

// Op names a filesystem operation a Fault can match.
type Op string

const (
	OpRead    Op = "read"
	OpWrite   Op = "write"
	OpRename  Op = "rename"
	OpMkdir   Op = "mkdir"
	OpReadDir Op = "readdir"
)

// Fault is one injection rule. Zero fields match everything, so the empty
// Fault with Fail=1 fails the very next operation of any kind.
type Fault struct {
	// Op restricts the rule to one operation ("" matches all).
	Op Op
	// Base restricts the rule to files with this base name ("" matches
	// all). Rename matches on the destination.
	Base string
	// Skip arms the rule only after that many matching calls have passed
	// untouched (0 = immediately).
	Skip int
	// Fail makes the next Fail matching calls return Err without touching
	// the filesystem. 0 means the rule only delays.
	Fail int
	// Err is the error failed calls return (nil = ErrInjected).
	Err error
	// Delay sleeps before the operation proceeds — slow-reader injection.
	Delay time.Duration

	skipped, failed int
}

// FS wraps an inner jobs.FS with fault injection. The zero value is not
// usable; call Wrap.
type FS struct {
	inner jobs.FS

	mu     sync.Mutex
	faults []*Fault
	dead   error
	// Injected counts faults actually fired, for test assertions.
	injected int
}

// Wrap returns a fault-injecting view of inner (nil means the real
// filesystem).
func Wrap(inner jobs.FS, faults ...*Fault) *FS {
	if inner == nil {
		inner = jobs.OSFS{}
	}
	return &FS{inner: inner, faults: faults}
}

// Add arms another fault at runtime.
func (c *FS) Add(f *Fault) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.faults = append(c.faults, f)
}

// Kill makes every subsequent operation fail with err (nil = ErrInjected)
// — the volume yanked out from under the process. It never recovers;
// tests reopen the spool with a fresh FS to model the restart.
func (c *FS) Kill(err error) {
	if err == nil {
		err = ErrInjected
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dead = err
}

// Injected reports how many faults fired so far.
func (c *FS) Injected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injected
}

// decide matches op/name against the armed faults and returns the action:
// a non-nil error to fail with and a delay to sleep. Counting happens
// under the lock; sleeping never does.
func (c *FS) decide(op Op, name string) (fail error, delay time.Duration) {
	base := ""
	if name != "" {
		base = filepathBase(name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		c.injected++
		return c.dead, 0
	}
	for _, f := range c.faults {
		if f.Op != "" && f.Op != op {
			continue
		}
		if f.Base != "" && f.Base != base {
			continue
		}
		if f.skipped < f.Skip {
			f.skipped++
			continue
		}
		delay += f.Delay
		if f.failed < f.Fail {
			f.failed++
			c.injected++
			err := f.Err
			if err == nil {
				err = ErrInjected
			}
			return err, delay
		}
	}
	return nil, delay
}

// filepathBase is path.Base for both separators without importing two
// path packages.
func filepathBase(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' || name[i] == '\\' {
			return name[i+1:]
		}
	}
	return name
}

func (c *FS) ReadFile(name string) ([]byte, error) {
	fail, delay := c.decide(OpRead, name)
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail != nil {
		return nil, fail
	}
	return c.inner.ReadFile(name)
}

func (c *FS) WriteFile(name string, data []byte, perm os.FileMode) error {
	fail, delay := c.decide(OpWrite, name)
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail != nil {
		return fail
	}
	return c.inner.WriteFile(name, data, perm)
}

func (c *FS) Rename(oldpath, newpath string) error {
	fail, delay := c.decide(OpRename, newpath)
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail != nil {
		return fail
	}
	return c.inner.Rename(oldpath, newpath)
}

func (c *FS) MkdirAll(path string, perm os.FileMode) error {
	fail, delay := c.decide(OpMkdir, path)
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail != nil {
		return fail
	}
	return c.inner.MkdirAll(path, perm)
}

func (c *FS) ReadDir(name string) ([]fs.DirEntry, error) {
	fail, delay := c.decide(OpReadDir, name)
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail != nil {
		return nil, fail
	}
	return c.inner.ReadDir(name)
}
