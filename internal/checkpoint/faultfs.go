package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrInjected is the error every injected fault surfaces as, so tests can
// distinguish deliberate failures from real bugs.
var ErrInjected = errors.New("checkpoint: injected fault")

// Faults configures deterministic failure injection on a MemFS. The zero
// value injects nothing. Counters (write bytes, sync calls, rename calls)
// are cumulative over the life of the MemFS, so a test can pre-populate
// state fault-free and then arm a fault at an exact operation.
type Faults struct {
	// FailWriteAfter fails every Write once the FS has accepted this many
	// bytes in total, with a short write at the boundary (the first
	// failing call writes the bytes up to the budget, then errors) —
	// together with Crash this simulates dying at exactly byte N.
	// 0 disables.
	FailWriteAfter int64
	// FailSyncAt fails the nth File.Sync call (1-based); 0 disables.
	FailSyncAt int
	// FailRenameAt fails the nth Rename call (1-based); 0 disables —
	// simulates crashing after the data is written but before the commit
	// rename.
	FailRenameAt int
	// SilentSyncLoss makes File.Sync report success without making the
	// bytes durable (a lying disk). A Save still "succeeds", but a
	// subsequent Crash tears the renamed file down to nothing — the torn
	// rename a loader must survive.
	SilentSyncLoss bool
	// FailOpens fails the next N Open calls (decrementing each time) —
	// a transient read fault, e.g. a checkpoint listed by ReadDir that a
	// concurrent writer still holds. Retrying after the budget drains
	// succeeds, which is exactly what the serve watcher's bounded-retry
	// path needs to distinguish from permanent corruption. 0 disables.
	FailOpens int
}

// MemFS is an in-memory FS with a durability model: every file has a
// volatile content (what readers see now) and a durable content (what
// survives Crash — only bytes that were covered by a successful Sync).
// Combined with Faults it deterministically reproduces the crash shapes
// that matter for checkpointing: death at byte N, torn renames, short
// writes, and fsync failures — no sleeps, no real disk.
type MemFS struct {
	mu      sync.Mutex
	files   map[string]*bytes.Buffer // volatile view
	durable map[string][]byte        // what a Crash preserves
	dirs    map[string]bool
	faults  Faults

	written int64 // total bytes accepted across all files
	syncs   int
	renames int
}

// NewMemFS returns an empty in-memory filesystem with no faults armed.
func NewMemFS() *MemFS {
	return &MemFS{
		files:   make(map[string]*bytes.Buffer),
		durable: make(map[string][]byte),
		dirs:    map[string]bool{".": true, "/": true},
	}
}

// SetFaults arms (or with the zero value, disarms) fault injection.
func (m *MemFS) SetFaults(f Faults) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faults = f
}

// BytesWritten reports the cumulative bytes accepted by Write calls,
// the counter FailWriteAfter compares against.
func (m *MemFS) BytesWritten() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.written
}

// Crash simulates power loss: the volatile view is discarded and replaced
// by the durable one. Files that were created or extended but never
// successfully synced lose the unsynced bytes; files renamed into place
// carry whatever had been synced under their old name.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files = make(map[string]*bytes.Buffer, len(m.durable))
	for p, b := range m.durable {
		m.files[p] = bytes.NewBuffer(append([]byte(nil), b...))
	}
}

// WriteFile installs a file bypassing the durability model (both views),
// for tests that plant pre-existing or hand-corrupted content.
func (m *MemFS) WriteFile(path string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	m.mkdirsLocked(filepath.Dir(path))
	m.files[path] = bytes.NewBuffer(append([]byte(nil), data...))
	m.durable[path] = append([]byte(nil), data...)
}

// ReadFile returns the current (volatile) content of path.
func (m *MemFS) ReadFile(path string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[filepath.Clean(path)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b.Bytes()...), true
}

func (m *MemFS) mkdirsLocked(dir string) {
	for d := filepath.Clean(dir); ; d = filepath.Dir(d) {
		m.dirs[d] = true
		if d == "." || d == "/" || d == filepath.Dir(d) {
			return
		}
	}
}

func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mkdirsLocked(dir)
	return nil
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if !m.dirs[filepath.Dir(name)] {
		return nil, fmt.Errorf("memfs: create %s: parent directory does not exist", name)
	}
	buf := &bytes.Buffer{}
	m.files[name] = buf
	delete(m.durable, name) // a fresh create starts with nothing durable
	return &memFile{fs: m, path: name, buf: buf}, nil
}

func (m *MemFS) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.faults.FailOpens > 0 {
		m.faults.FailOpens--
		return nil, fmt.Errorf("memfs: open %s: %w", name, ErrInjected)
	}
	b, ok := m.files[filepath.Clean(name)]
	if !ok {
		return nil, fmt.Errorf("memfs: open %s: file does not exist", name)
	}
	return memReader{bytes.NewReader(append([]byte(nil), b.Bytes()...))}, nil
}

// memReader is an opened MemFS file. It keeps the bytes.Reader's Len in
// view, so a decoder learns the file's size as it would from an os.File.
type memReader struct{ *bytes.Reader }

func (memReader) Close() error { return nil }

func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.renames++
	if m.faults.FailRenameAt > 0 && m.renames == m.faults.FailRenameAt {
		return fmt.Errorf("memfs: rename %s: %w", oldpath, ErrInjected)
	}
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	b, ok := m.files[oldpath]
	if !ok {
		return fmt.Errorf("memfs: rename %s: file does not exist", oldpath)
	}
	m.files[newpath] = b
	delete(m.files, oldpath)
	// The rename itself is atomic journaled metadata: the destination name
	// survives a crash, but only with the bytes that were durable under
	// the old name — an unsynced source tears to an empty file.
	m.durable[newpath] = m.durable[oldpath]
	delete(m.durable, oldpath)
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("memfs: remove %s: file does not exist", name)
	}
	delete(m.files, name)
	delete(m.durable, name)
	return nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return nil, fmt.Errorf("memfs: readdir %s: directory does not exist", dir)
	}
	prefix := dir + string(filepath.Separator)
	if dir == "." {
		prefix = ""
	}
	var names []string
	for p := range m.files {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		rest := p[len(prefix):]
		if rest != "" && !strings.Contains(rest, string(filepath.Separator)) {
			names = append(names, rest)
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[filepath.Clean(dir)] {
		return fmt.Errorf("memfs: syncdir %s: directory does not exist", dir)
	}
	return nil
}

// memFile is a MemFS write handle. The durability model lives here: Write
// grows only the volatile view; Sync copies it to the durable view.
type memFile struct {
	fs     *MemFS
	path   string
	buf    *bytes.Buffer
	closed bool
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, fmt.Errorf("memfs: write %s: file closed", f.path)
	}
	if lim := f.fs.faults.FailWriteAfter; lim > 0 {
		if f.fs.written >= lim {
			return 0, fmt.Errorf("memfs: write %s: %w", f.path, ErrInjected)
		}
		if f.fs.written+int64(len(p)) > lim {
			// Short write: accept bytes up to the budget, then fail.
			n := int(lim - f.fs.written)
			f.buf.Write(p[:n])
			f.fs.written += int64(n)
			return n, fmt.Errorf("memfs: short write %s: %w", f.path, ErrInjected)
		}
	}
	n, _ := f.buf.Write(p)
	f.fs.written += int64(n)
	return n, nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.syncs++
	if at := f.fs.faults.FailSyncAt; at > 0 && f.fs.syncs == at {
		return fmt.Errorf("memfs: fsync %s: %w", f.path, ErrInjected)
	}
	if f.fs.faults.SilentSyncLoss {
		return nil // lie: report success, persist nothing
	}
	if _, ok := f.fs.files[f.path]; ok {
		f.fs.durable[f.path] = append([]byte(nil), f.buf.Bytes()...)
	}
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.closed = true
	return nil
}
