package faultinject

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// MemFS is an in-memory filesystem with crash semantics: every write lands
// in a volatile layer (the page cache), Sync copies a file's volatile
// content to a durable layer (the disk), and Crash discards the volatile
// layer and invalidates every open handle — exactly what a power loss does
// to a process that skipped its fsyncs. Rename and Remove are journaled
// metadata operations: they take effect durably at once, but a rename
// carries only the target's durable content, so rename-before-sync
// publishes stale or empty data after a crash (the bug the atomic-write
// helper exists to prevent).
//
// MemFS is safe for concurrent use and completely deterministic: no clocks,
// no randomness, no real I/O.
type MemFS struct {
	mu       sync.Mutex
	volatile map[string][]byte
	durable  map[string][]byte
	dirs     map[string]bool
	crashes  int
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{
		volatile: map[string][]byte{},
		durable:  map[string][]byte{},
		dirs:     map[string]bool{".": true, "/": true},
	}
}

// Crash simulates a power loss: every file reverts to its last synced
// (durable) content, unsynced files disappear, and every open handle goes
// dead (further operations fail like writes to a vanished device).
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashes++
	m.volatile = make(map[string][]byte, len(m.durable))
	for name, b := range m.durable {
		cp := make([]byte, len(b))
		copy(cp, b)
		m.volatile[name] = cp
	}
}

// ReadFile returns the current (volatile) content of name.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.volatile[name]
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), b...), nil
}

// OpenFile implements FS.
func (m *MemFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, exists := m.volatile[name]
	switch {
	case !exists && flag&os.O_CREATE == 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case exists && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case !exists:
		m.volatile[name] = nil
	case flag&os.O_TRUNC != 0:
		m.volatile[name] = nil
	}
	return &memFile{fs: m, name: name, flag: flag, born: m.crashes}, nil
}

// Rename implements FS. Like a journaled filesystem, the name change is
// durable immediately, but the content travelling under the new name is
// whatever was durable for the old one — unsynced bytes stay volatile.
func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.volatile[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	m.volatile[newpath] = b
	delete(m.volatile, oldpath)
	if db, ok := m.durable[oldpath]; ok {
		m.durable[newpath] = db
		delete(m.durable, oldpath)
	} else {
		delete(m.durable, newpath)
	}
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.volatile[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.volatile, name)
	delete(m.durable, name)
	return nil
}

// MkdirAll implements FS.
func (m *MemFS) MkdirAll(name string, perm fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := name; p != "." && p != "/" && p != ""; p = filepath.Dir(p) {
		m.dirs[p] = true
	}
	return nil
}

// ReadDir implements FS: the direct children of name (files and
// subdirectories), sorted by filename like os.ReadDir. Listing reflects the
// volatile layer — exactly what a running process sees.
func (m *MemFS) ReadDir(name string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if !m.dirs[name] {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: fs.ErrNotExist}
	}
	prefix := name + string(filepath.Separator)
	if name == "." {
		prefix = ""
	}
	seen := map[string]fs.DirEntry{}
	for path, b := range m.volatile {
		if !strings.HasPrefix(path, prefix) || path == name {
			continue
		}
		rest := path[len(prefix):]
		if i := strings.IndexByte(rest, filepath.Separator); i >= 0 {
			// A file deeper down implies an intermediate directory child.
			seen[rest[:i]] = memDirEntry{memInfo{name: rest[:i], dir: true}}
			continue
		}
		seen[rest] = memDirEntry{memInfo{name: rest, size: int64(len(b))}}
	}
	for dir := range m.dirs {
		if !strings.HasPrefix(dir, prefix) || dir == name {
			continue
		}
		rest := dir[len(prefix):]
		if i := strings.IndexByte(rest, filepath.Separator); i >= 0 {
			rest = rest[:i]
		}
		if _, ok := seen[rest]; !ok {
			seen[rest] = memDirEntry{memInfo{name: rest, dir: true}}
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]fs.DirEntry, len(names))
	for i, n := range names {
		out[i] = seen[n]
	}
	return out, nil
}

// memDirEntry adapts memInfo to fs.DirEntry.
type memDirEntry struct{ info memInfo }

func (e memDirEntry) Name() string               { return e.info.name }
func (e memDirEntry) IsDir() bool                { return e.info.dir }
func (e memDirEntry) Type() fs.FileMode          { return e.info.Mode().Type() }
func (e memDirEntry) Info() (fs.FileInfo, error) { return e.info, nil }

// Stat implements FS.
func (m *MemFS) Stat(name string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.volatile[name]; ok {
		return memInfo{name: filepath.Base(name), size: int64(len(b))}, nil
	}
	if m.dirs[name] {
		return memInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
}

// memFile is one open handle on a MemFS file.
type memFile struct {
	fs     *MemFS
	name   string
	flag   int
	born   int // fs.crashes at open; a later crash kills the handle
	off    int64
	closed bool
}

// dead reports (under fs.mu) whether the handle outlived a crash or close.
func (f *memFile) dead() error {
	if f.closed {
		return &fs.PathError{Op: "file", Path: f.name, Err: fs.ErrClosed}
	}
	if f.born != f.fs.crashes {
		return &fs.PathError{Op: "file", Path: f.name, Err: fs.ErrInvalid}
	}
	return nil
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.dead(); err != nil {
		return 0, err
	}
	b := f.fs.volatile[f.name]
	if f.off >= int64(len(b)) {
		return 0, io.EOF
	}
	n := copy(p, b[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.dead(); err != nil {
		return 0, err
	}
	b := f.fs.volatile[f.name]
	if off >= int64(len(b)) {
		return 0, io.EOF
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.dead(); err != nil {
		return 0, err
	}
	b := f.fs.volatile[f.name]
	if f.flag&os.O_APPEND != 0 {
		f.off = int64(len(b))
	}
	if grow := f.off + int64(len(p)) - int64(len(b)); grow > 0 {
		b = append(b, make([]byte, grow)...)
	}
	copy(b[f.off:], p)
	f.fs.volatile[f.name] = b
	f.off += int64(len(p))
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.dead(); err != nil {
		return err
	}
	f.fs.durable[f.name] = append([]byte(nil), f.fs.volatile[f.name]...)
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.dead(); err != nil {
		return err
	}
	b := f.fs.volatile[f.name]
	if size <= int64(len(b)) {
		f.fs.volatile[f.name] = b[:size]
	} else {
		f.fs.volatile[f.name] = append(b, make([]byte, size-int64(len(b)))...)
	}
	return nil
}

func (f *memFile) Stat() (fs.FileInfo, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.dead(); err != nil {
		return nil, err
	}
	return memInfo{name: filepath.Base(f.name), size: int64(len(f.fs.volatile[f.name]))}, nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return &fs.PathError{Op: "close", Path: f.name, Err: fs.ErrClosed}
	}
	f.closed = true
	return nil
}

// memInfo is the fs.FileInfo of a MemFS entry. ModTime is the zero time:
// MemFS is deterministic and never consults a clock.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string { return i.name }
func (i memInfo) Size() int64  { return i.size }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
