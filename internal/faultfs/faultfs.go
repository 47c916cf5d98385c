// Package faultfs is an injectable filesystem seam for the snapshot
// store (internal/store): the small set of file operations the store
// performs, behind an interface with two implementations — OS, a thin
// passthrough to package os, and Injector, a scriptable wrapper that
// makes chosen operations fail (a permanent ENOSPC, every Nth sync, a
// torn write that persists only a prefix) so fault-tolerance paths can
// be driven deterministically in tests instead of waiting for a real
// disk to die.
//
// The seam exists for robustness testing, not abstraction for its own
// sake: the store's degraded mode (detect persistent I/O failure,
// fall back to memory-only operation, re-probe with backoff) is only
// trustworthy if its entry, re-probe and recovery transitions are
// exercised under every failure the seam can produce.
package faultfs

import (
	"io"
	"os"
	"sync"
)

// File is the subset of *os.File the store uses. Implementations must
// be safe for the single-owner access pattern the store follows (one
// writer goroutine per handle; ReadAt-only handles may be shared).
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Stat returns the file's metadata (the store uses only the size).
	Stat() (os.FileInfo, error)
}

// FS is the filesystem surface the store performs all its I/O through.
type FS interface {
	// OpenFile opens a file for writing with the given flags and mode.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens a file read-only.
	Open(name string) (File, error)
	// ReadFile returns a file's full contents.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory.
	ReadDir(name string) ([]os.DirEntry, error)
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// Remove deletes a file.
	Remove(name string) error
	// Truncate resizes a file in place.
	Truncate(name string, size int64) error
	// Rename atomically moves a file (the peer-bootstrap installer's
	// commit step: verified segments move from a staging directory into
	// the store directory in one shot).
	Rename(oldpath, newpath string) error
}

// OS is the production FS: a passthrough to package os.
type OS struct{}

// osFile adapts *os.File to File (it already satisfies every method;
// the wrapper only exists so OS methods return the interface type).
type osFile struct{ *os.File }

// OpenFile opens a file for writing via os.OpenFile.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Open opens a file read-only via os.Open.
func (OS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// ReadFile delegates to os.ReadFile.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadDir delegates to os.ReadDir.
func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// MkdirAll delegates to os.MkdirAll.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// Remove delegates to os.Remove.
func (OS) Remove(name string) error { return os.Remove(name) }

// Truncate delegates to os.Truncate.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// Rename delegates to os.Rename.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Op identifies one class of filesystem operation for fault scripting.
type Op int

// The scriptable operation classes. OpWrite and OpSync are the ones
// the store's degraded mode keys off; the rest let tests break scans,
// replays and compactions too.
const (
	OpOpenFile Op = iota
	OpOpen
	OpReadFile
	OpReadDir
	OpMkdirAll
	OpRemove
	OpTruncate
	OpRename
	OpWrite
	OpReadAt
	OpSync
	OpClose
	OpStat
	numOps
)

// String returns the operation name.
func (o Op) String() string {
	names := [...]string{"openfile", "open", "readfile", "readdir", "mkdirall",
		"remove", "truncate", "rename", "write", "readat", "sync", "close", "stat"}
	if int(o) < len(names) {
		return names[o]
	}
	return "unknown"
}

// Fault is a scripted outcome for one operation. The zero value means
// "no fault": the operation proceeds normally.
type Fault struct {
	// Err, when non-nil, is returned as the operation's error (e.g.
	// syscall.ENOSPC).
	Err error
	// TornBytes applies to OpWrite and OpReadAt: the underlying call
	// moves exactly this prefix of the buffer before Err is returned — a
	// torn write, a short read. Ignored when Err is nil or TornBytes <= 0.
	TornBytes int
}

// Script decides the fault for an operation: op is the operation
// class, path the target file, and seq the 1-based per-class count of
// this operation across the Injector's lifetime (so "fail the 3rd
// sync" is expressible). A zero Fault lets the operation through.
type Script func(op Op, path string, seq uint64) Fault

// Injector wraps another FS, consulting a swappable Script before
// every operation. It is safe for concurrent use; Set/ClearScript may
// be called while operations are in flight (each operation reads the
// script once).
type Injector struct {
	inner FS

	mu     sync.Mutex
	script Script
	counts [numOps]uint64
}

// NewInjector wraps inner (nil means the real filesystem) with no
// script installed: every operation passes through until SetScript.
func NewInjector(inner FS) *Injector {
	if inner == nil {
		inner = OS{}
	}
	return &Injector{inner: inner}
}

// SetScript installs the fault script (nil clears it).
func (in *Injector) SetScript(s Script) {
	in.mu.Lock()
	in.script = s
	in.mu.Unlock()
}

// FailOps installs a script failing every listed operation with err —
// the "disk died" preset.
func (in *Injector) FailOps(err error, ops ...Op) {
	set := [numOps]bool{}
	for _, o := range ops {
		set[o] = true
	}
	in.SetScript(func(op Op, _ string, _ uint64) Fault {
		if set[op] {
			return Fault{Err: err}
		}
		return Fault{}
	})
}

// Count returns how many operations of the class have been attempted
// (faulted or not) since construction.
func (in *Injector) Count(op Op) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[op]
}

// decide counts the operation and consults the script.
func (in *Injector) decide(op Op, path string) Fault {
	in.mu.Lock()
	in.counts[op]++
	seq := in.counts[op]
	s := in.script
	in.mu.Unlock()
	if s == nil {
		return Fault{}
	}
	return s(op, path, seq)
}

// OpenFile applies the script, then delegates. Faulted opens return a
// nil File.
func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if f := in.decide(OpOpenFile, name); f.Err != nil {
		return nil, f.Err
	}
	inner, err := in.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injectorFile{in: in, name: name, inner: inner}, nil
}

// Open applies the script, then delegates.
func (in *Injector) Open(name string) (File, error) {
	if f := in.decide(OpOpen, name); f.Err != nil {
		return nil, f.Err
	}
	inner, err := in.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &injectorFile{in: in, name: name, inner: inner}, nil
}

// ReadFile applies the script, then delegates.
func (in *Injector) ReadFile(name string) ([]byte, error) {
	if f := in.decide(OpReadFile, name); f.Err != nil {
		return nil, f.Err
	}
	return in.inner.ReadFile(name)
}

// ReadDir applies the script, then delegates.
func (in *Injector) ReadDir(name string) ([]os.DirEntry, error) {
	if f := in.decide(OpReadDir, name); f.Err != nil {
		return nil, f.Err
	}
	return in.inner.ReadDir(name)
}

// MkdirAll applies the script, then delegates.
func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	if f := in.decide(OpMkdirAll, path); f.Err != nil {
		return f.Err
	}
	return in.inner.MkdirAll(path, perm)
}

// Remove applies the script, then delegates.
func (in *Injector) Remove(name string) error {
	if f := in.decide(OpRemove, name); f.Err != nil {
		return f.Err
	}
	return in.inner.Remove(name)
}

// Truncate applies the script, then delegates.
func (in *Injector) Truncate(name string, size int64) error {
	if f := in.decide(OpTruncate, name); f.Err != nil {
		return f.Err
	}
	return in.inner.Truncate(name, size)
}

// Rename applies the script (keyed by the destination path, the one
// the caller is trying to install), then delegates.
func (in *Injector) Rename(oldpath, newpath string) error {
	if f := in.decide(OpRename, newpath); f.Err != nil {
		return f.Err
	}
	return in.inner.Rename(oldpath, newpath)
}

// injectorFile routes per-file operations back through the injector's
// script, keyed by the file's path.
type injectorFile struct {
	in    *Injector
	name  string
	inner File
}

// Write applies the script; a torn fault persists only the scripted
// prefix before failing, modeling a crash mid-write.
func (f *injectorFile) Write(p []byte) (int, error) {
	if ft := f.in.decide(OpWrite, f.name); ft.Err != nil {
		n := 0
		if ft.TornBytes > 0 {
			torn := ft.TornBytes
			if torn > len(p) {
				torn = len(p)
			}
			n, _ = f.inner.Write(p[:torn])
		}
		return n, ft.Err
	}
	return f.inner.Write(p)
}

// ReadAt applies the script; a torn fault fills only the scripted
// prefix before failing, modeling a short read.
func (f *injectorFile) ReadAt(p []byte, off int64) (int, error) {
	if ft := f.in.decide(OpReadAt, f.name); ft.Err != nil {
		n := 0
		if ft.TornBytes > 0 {
			n, _ = f.inner.ReadAt(p[:min(ft.TornBytes, len(p))], off)
		}
		return n, ft.Err
	}
	return f.inner.ReadAt(p, off)
}

// Sync applies the script, then delegates.
func (f *injectorFile) Sync() error {
	if ft := f.in.decide(OpSync, f.name); ft.Err != nil {
		return ft.Err
	}
	return f.inner.Sync()
}

// Close applies the script, then delegates (the underlying handle is
// still closed on a scripted error, so tests cannot leak descriptors).
func (f *injectorFile) Close() error {
	if ft := f.in.decide(OpClose, f.name); ft.Err != nil {
		f.inner.Close()
		return ft.Err
	}
	return f.inner.Close()
}

// Stat applies the script, then delegates.
func (f *injectorFile) Stat() (os.FileInfo, error) {
	if ft := f.in.decide(OpStat, f.name); ft.Err != nil {
		return nil, ft.Err
	}
	return f.inner.Stat()
}
