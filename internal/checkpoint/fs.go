package checkpoint

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is the writable handle the checkpoint writer needs: sequential
// writes, an explicit durability barrier, and close.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS abstracts the filesystem operations checkpointing (and the serving
// layer's checkpoint watcher) performs, so tests can substitute a
// deterministic fault-injecting implementation (MemFS) for the real disk.
// All paths are slash-joined by the caller with filepath.Join.
type FS interface {
	MkdirAll(dir string) error
	Create(name string) (File, error)
	Open(name string) (io.ReadCloser, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// ReadDir returns the names (not full paths) of the entries of dir.
	ReadDir(dir string) ([]string, error)
	// SyncDir flushes the directory entry table, making a preceding
	// Rename durable.
	SyncDir(dir string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(name string) (File, error) { return os.Create(name) }

func (osFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic writes a file crash-safely: the content goes to a
// hidden temp file in the same directory, is fsynced, and only then
// renamed over the final path (followed by a directory fsync), so a crash
// at any byte leaves either the old file or the new one — never a torn
// mix. The write callback receives a buffered writer; it must not retain
// it.
func WriteFileAtomic(fsys FS, path string, write func(io.Writer) error) (err error) {
	dir, base := filepath.Dir(path), filepath.Base(path)
	tmp := filepath.Join(dir, tmpPrefix+base)
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			fsys.Remove(tmp)
		}
	}()
	bw := bufio.NewWriterSize(f, writeBuf)
	if err = write(bw); err != nil {
		f.Close()
		return err
	}
	if err = bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err = f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: fsync %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("checkpoint: rename %s: %w", base, err)
	}
	if err = fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("checkpoint: fsync dir %s: %w", dir, err)
	}
	return nil
}

// writeBuf is the one write buffer a save goes through: WriteFileAtomic
// allocates it, and Encode, handed a bufio.Writer at least this large,
// writes into it instead of allocating its own. 64 KiB matches the
// codec's staging size; a larger buffer saves a few write calls on a
// multi-megabyte checkpoint and is garbage after every save, which a
// trainer that checkpoints each iteration piles up uncollected.
const writeBuf = 64 << 10

// tmpPrefix marks in-progress writes; Latest ignores and GC removes them.
const tmpPrefix = ".tmp-"
