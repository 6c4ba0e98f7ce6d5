// Package store is the repo's durability layer: a pluggable,
// crash-consistent checkpoint store that both the control plane's
// Journal (internal/sched) and the service layer's manifests
// (internal/serve) sit on. It owns three things the ad-hoc
// persistence it replaced got wrong or could not test:
//
//   - an append-only segment log of CRC32C-framed, length-prefixed
//     records with torn-tail detection-and-truncation on open and
//     snapshot compaction that never deletes the last good snapshot
//     until its successor is durable (SegmentStore);
//
//   - an explicit fsync policy (FsyncAlways / FsyncInterval /
//     FsyncNever) and a shared atomic-rename file write
//     (WriteFileAtomic) that fsyncs the file before the rename and
//     the parent directory after it — the sequence a power loss
//     cannot tear;
//
//   - an injectable filesystem seam (FS, default the real OS) with a
//     seeded deterministic fault injector (FaultFS) that models the
//     page cache, so short writes, ENOSPC, fsync failures, bit-flips
//     and crashes at arbitrary operation boundaries are exercised in
//     ordinary `go test` and by the cmd/crash-store harness.
//
// See DESIGN.md §15 for the record framing, the compaction state
// machine, and the crash matrix the recovery tests walk.
package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// File is the handle surface the store needs from an open file.
type File interface {
	io.Writer
	io.Closer
	// Sync flushes the file's data (and size) to stable storage.
	Sync() error
}

// FS is the filesystem seam every durable write in the repo goes
// through. The default is OS (the real filesystem); tests and the
// crash harness inject FaultFS. The surface is deliberately narrow —
// just what a crash-consistent store needs — so the fault injector
// can model every call.
type FS interface {
	// OpenFile opens name with os-style flags (O_WRONLY, O_CREATE,
	// O_TRUNC, O_APPEND, ...).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile returns the whole file; a missing file satisfies
	// errors.Is(err, fs.ErrNotExist).
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath. Durability of
	// the new directory entry requires SyncDir on the parent.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Truncate cuts a file to size bytes.
	Truncate(name string, size int64) error
	// ReadDir lists the directory's entry names (files and
	// subdirectories), sorted.
	ReadDir(dir string) ([]string, error)
	// MkdirAll creates the directory and its parents.
	MkdirAll(dir string, perm os.FileMode) error
	// DirExists reports whether name exists and is a directory.
	DirExists(name string) (bool, error)
	// SyncDir fsyncs a directory, making its entries (renames,
	// creates, removes) durable.
	SyncDir(dir string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

// isNotExist reports a missing file from any FS implementation.
func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (osFS) DirExists(name string) (bool, error) {
	info, err := os.Stat(name)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return info.IsDir(), nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// WriteFileAtomic replaces path with data using the full
// crash-consistent sequence: write a same-directory temp file, fsync
// it, rename it over path, fsync the parent directory. Either the old
// content or the new content survives a crash at any point — never a
// torn mix, and never an "acked" write that a power loss silently
// rolls back (the bug the pre-store checkpoint and manifest writers
// had: rename with no fsync). A nil fsys uses the real filesystem.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	return writeFileAtomic(fsys, path, data, true, nil)
}

// writeFileAtomic is WriteFileAtomic with the fsyncs gated (the
// segment store's FsyncNever/Interval snapshot path) and counted.
func writeFileAtomic(fsys FS, path string, data []byte, sync bool, synced func()) error {
	if fsys == nil {
		fsys = OS
	}
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return fmt.Errorf("store: write %s: %w", tmp, err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			_ = fsys.Remove(tmp)
			return fmt.Errorf("store: fsync %s: %w", tmp, err)
		}
		if synced != nil {
			synced()
		}
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("store: close %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("store: rename %s: %w", path, err)
	}
	if sync {
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			return fmt.Errorf("store: fsync dir of %s: %w", path, err)
		}
		if synced != nil {
			synced()
		}
	}
	return nil
}
