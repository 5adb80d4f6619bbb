package jobs

import (
	"io/fs"
	"os"
)

// FS is the filesystem seam of the job spool. The Store performs every
// disk operation through it, so a fault-injecting implementation (see
// internal/chaos) can exercise torn writes, transient failures and slow
// reads without touching the production code paths. OSFS is the real
// thing.
type FS interface {
	ReadFile(name string) ([]byte, error)
	// WriteFile must create or truncate name; the Store only ever calls it
	// on temporary paths that are renamed into place afterwards.
	WriteFile(name string, data []byte, perm os.FileMode) error
	// Rename atomically replaces newpath with oldpath (POSIX semantics) —
	// the one primitive spool durability leans on.
	Rename(oldpath, newpath string) error
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
}

// OSFS is the passthrough FS backed by package os.
type OSFS struct{}

func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (OSFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (OSFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (OSFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
