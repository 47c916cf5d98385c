package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestOSPassthrough pins the production path: with no script installed
// the injector behaves exactly like the real filesystem.
func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	path := filepath.Join(dir, "a.dat")
	f, err := in.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil || st.Size() != 5 {
		t.Fatalf("stat: %v, size %d", err, st.Size())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := in.ReadFile(path)
	if err != nil || string(data) != "hello" {
		t.Fatalf("readfile: %v, %q", err, data)
	}
	r, err := in.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := r.ReadAt(buf, 2); err != nil || string(buf) != "llo" {
		t.Fatalf("readat: %v, %q", err, buf)
	}
	r.Close()
	entries, err := in.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("readdir: %v, %d entries", err, len(entries))
	}
	if err := in.Remove(path); err != nil {
		t.Fatal(err)
	}
}

// TestFailOps checks the "disk died" preset: the listed op classes fail
// with the given error, everything else passes through, and clearing
// the script heals the disk.
func TestFailOps(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	in.FailOps(syscall.ENOSPC, OpWrite, OpSync)
	f, err := in.OpenFile(filepath.Join(dir, "b.dat"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open should pass through: %v", err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write error %v, want ENOSPC", err)
	}
	if err := f.Sync(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("sync error %v, want ENOSPC", err)
	}
	in.SetScript(nil)
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after heal: %v", err)
	}
}

// TestTornWrite checks that a torn fault persists exactly the scripted
// prefix — the crash-mid-write model the store's scan-truncation path
// is tested against.
func TestTornWrite(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	path := filepath.Join(dir, "c.dat")
	errTorn := errors.New("torn")
	in.SetScript(func(op Op, _ string, _ uint64) Fault {
		if op == OpWrite {
			return Fault{Err: errTorn, TornBytes: 3}
		}
		return Fault{}
	})
	f, err := in.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, errTorn) || n != 3 {
		t.Fatalf("torn write: n=%d err=%v", n, err)
	}
	f.Close()
	in.SetScript(nil)
	data, err := in.ReadFile(path)
	if err != nil || string(data) != "abc" {
		t.Fatalf("on disk after tear: %q (%v), want \"abc\"", data, err)
	}
}

// TestShortRead: a torn ReadAt fills the scripted prefix of the buffer,
// leaves the rest alone and returns the scripted error.
func TestShortRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.dat")
	if err := os.WriteFile(path, []byte("abcdef"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(nil)
	in.SetScript(func(op Op, _ string, _ uint64) Fault {
		if op == OpReadAt {
			return Fault{Err: io.ErrUnexpectedEOF, TornBytes: 2}
		}
		return Fault{}
	})
	f, err := in.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := []byte("------")
	n, err := f.ReadAt(buf, 1)
	if !errors.Is(err, io.ErrUnexpectedEOF) || n != 2 || string(buf) != "bc----" {
		t.Fatalf("short read: n=%d err=%v buf=%q, want 2 bytes \"bc\"", n, err, buf)
	}
}

// TestSeqScript checks the per-class sequence counter: "fail the 2nd
// sync" fails exactly the 2nd sync.
func TestSeqScript(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(nil)
	errNth := errors.New("nth")
	in.SetScript(func(op Op, _ string, seq uint64) Fault {
		if op == OpSync && seq == 2 {
			return Fault{Err: errNth}
		}
		return Fault{}
	})
	f, err := in.OpenFile(filepath.Join(dir, "d.dat"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i, want := range []error{nil, errNth, nil} {
		if err := f.Sync(); !errors.Is(err, want) {
			t.Errorf("sync %d: err %v, want %v", i+1, err, want)
		}
	}
	if got := in.Count(OpSync); got != 3 {
		t.Errorf("sync count %d, want 3 (faulted ops still count)", got)
	}
	if got := in.Count(OpOpenFile); got != 1 {
		t.Errorf("openfile count %d, want 1", got)
	}
}
