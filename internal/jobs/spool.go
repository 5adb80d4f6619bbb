package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"xhybrid"
	"xhybrid/internal/obs"
)

// Spool file names inside one job directory. Every mutation lands via
// write-to-temp + atomic rename, so a crash at any instant leaves either
// the old file or the new one — never a half-written current file. The
// only torn artifacts a crash can leave are *.tmp files, which readers
// never open. Any other file in a job directory is ignored.
const (
	metaFile   = "job.json"
	inputFile  = "input.json"
	resultFile = "result.json"
	tmpSuffix  = ".tmp"
)

// Meta is the durable record of one job (spooled as job.json).
type Meta struct {
	ID string `json:"id"`
	// Kind discriminates the job type: "" (KindPartition) runs the plain
	// partitioner over a spooled X-map; KindFlow runs the full circuit
	// pipeline over a spooled FlowSpec. The spool layout is identical —
	// input.json and result.json just hold kind-specific payloads.
	Kind    string  `json:"kind,omitempty"`
	State   State   `json:"state"`
	Options Options `json:"options"`

	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`

	// Error holds the failure cause for StateFailed.
	Error string `json:"error,omitempty"`
	// Resumes counts how many times the job was restarted from the spool.
	Resumes int `json:"resumes,omitempty"`
}

// Store is the crash-durable job spool: one directory per job holding the
// input, the normalized options and state (job.json) and, eventually, the
// result. Every write goes through the retry policy — transient I/O errors
// back off and try again — and every visible file is complete, courtesy of
// atomic renames.
type Store struct {
	dir     string
	fs      FS
	policy  RetryPolicy
	retries *obs.Counter
}

// NewStore opens (creating if needed) a spool rooted at dir. fsys nil means
// the real filesystem.
func NewStore(dir string, fsys FS, policy RetryPolicy, rec *obs.Recorder) (*Store, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	s := &Store{dir: dir, fs: fsys, policy: policy, retries: rec.Counter("jobs.spool.retries")}
	if err := s.retry(context.Background(), func() error { return s.fs.MkdirAll(dir, 0o755) }); err != nil {
		return nil, fmt.Errorf("jobs: spool dir: %w", err)
	}
	return s, nil
}

// Dir returns the spool root.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(id, file string) string { return filepath.Join(s.dir, id, file) }

func (s *Store) retry(ctx context.Context, op func() error) error {
	return s.policy.retry(ctx, op, func(error) { s.retries.Inc() })
}

// writeAtomic writes data to path via temp file + rename, retrying
// transient failures as one unit.
func (s *Store) writeAtomic(ctx context.Context, path string, data []byte) error {
	tmp := path + tmpSuffix
	return s.retry(ctx, func() error {
		if err := s.fs.WriteFile(tmp, data, 0o644); err != nil {
			return err
		}
		return s.fs.Rename(tmp, path)
	})
}

// CreateJob spools a fresh job: its directory, input X-map and metadata.
func (s *Store) CreateJob(ctx context.Context, meta Meta, x *xhybrid.XLocations) error {
	if err := s.retry(ctx, func() error { return s.fs.MkdirAll(filepath.Join(s.dir, meta.ID), 0o755) }); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := x.WriteJSON(&buf); err != nil {
		return err
	}
	if err := s.writeAtomic(ctx, s.path(meta.ID, inputFile), buf.Bytes()); err != nil {
		return err
	}
	return s.WriteMeta(ctx, meta)
}

// WriteMeta persists the job record.
func (s *Store) WriteMeta(ctx context.Context, meta Meta) error {
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return s.writeAtomic(ctx, s.path(meta.ID, metaFile), data)
}

// ReadMeta loads the job record.
func (s *Store) ReadMeta(ctx context.Context, id string) (Meta, error) {
	var meta Meta
	err := s.retry(ctx, func() error {
		data, err := s.fs.ReadFile(s.path(id, metaFile))
		if err != nil {
			return err
		}
		return json.Unmarshal(data, &meta)
	})
	if errors.Is(err, fs.ErrNotExist) {
		return meta, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return meta, err
}

// ReadInput loads the job's X-map.
func (s *Store) ReadInput(ctx context.Context, id string) (*xhybrid.XLocations, error) {
	var x *xhybrid.XLocations
	err := s.retry(ctx, func() error {
		data, err := s.fs.ReadFile(s.path(id, inputFile))
		if err != nil {
			return err
		}
		x, err = xhybrid.ReadXLocations(bytes.NewReader(data))
		return err
	})
	return x, err
}

// CreateFlowJob spools a fresh flow job: its directory, the flow spec (as
// input.json) and metadata.
func (s *Store) CreateFlowJob(ctx context.Context, meta Meta, spec *xhybrid.FlowSpec) error {
	if err := s.retry(ctx, func() error { return s.fs.MkdirAll(filepath.Join(s.dir, meta.ID), 0o755) }); err != nil {
		return err
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	if err := s.writeAtomic(ctx, s.path(meta.ID, inputFile), data); err != nil {
		return err
	}
	return s.WriteMeta(ctx, meta)
}

// ReadFlowSpec loads a flow job's spooled spec.
func (s *Store) ReadFlowSpec(ctx context.Context, id string) (*xhybrid.FlowSpec, error) {
	spec := new(xhybrid.FlowSpec)
	err := s.retry(ctx, func() error {
		data, err := s.fs.ReadFile(s.path(id, inputFile))
		if err != nil {
			return err
		}
		return json.Unmarshal(data, spec)
	})
	if err != nil {
		return nil, err
	}
	return spec, nil
}

// WriteFlowResult persists a finished flow report.
func (s *Store) WriteFlowResult(ctx context.Context, id string, rep *xhybrid.FlowReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return s.writeAtomic(ctx, s.path(id, resultFile), data)
}

// ReadFlowResult loads a finished flow report.
func (s *Store) ReadFlowResult(ctx context.Context, id string) (*xhybrid.FlowReport, error) {
	rep := new(xhybrid.FlowReport)
	err := s.retry(ctx, func() error {
		data, err := s.fs.ReadFile(s.path(id, resultFile))
		if err != nil {
			return err
		}
		return json.Unmarshal(data, rep)
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// WriteResult persists the finished plan.
func (s *Store) WriteResult(ctx context.Context, id string, plan *xhybrid.Plan) error {
	data, err := json.MarshalIndent(plan, "", "  ")
	if err != nil {
		return err
	}
	return s.writeAtomic(ctx, s.path(id, resultFile), data)
}

// ReadResult loads the finished plan.
func (s *Store) ReadResult(ctx context.Context, id string) (*xhybrid.Plan, error) {
	plan := new(xhybrid.Plan)
	err := s.retry(ctx, func() error {
		data, err := s.fs.ReadFile(s.path(id, resultFile))
		if err != nil {
			return err
		}
		return json.Unmarshal(data, plan)
	})
	if err != nil {
		return nil, err
	}
	return plan, nil
}

// List returns every job record in the spool, skipping entries whose
// metadata is unreadable (a job directory mid-creation at crash time).
func (s *Store) List(ctx context.Context) ([]Meta, error) {
	var entries []fs.DirEntry
	err := s.retry(ctx, func() error {
		var rerr error
		entries, rerr = s.fs.ReadDir(s.dir)
		return rerr
	})
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var out []Meta
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		meta, err := s.ReadMeta(ctx, e.Name())
		if err != nil {
			continue
		}
		out = append(out, meta)
	}
	return out, nil
}
