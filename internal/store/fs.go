package store

import (
	"bufio"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// fileSystem is every filesystem call the store makes. osFS is the one
// production implementation; the package's tests put a recording
// filesystem in its place, to crash the store at each call and to fail it.
type fileSystem interface {
	open(name string) (file, error)      // read-only: snapshots, and directories to sync
	openWrite(name string) (file, error) // an existing file, write-only, written at chosen offsets
	create(name string) (file, error)    // new or truncated, write-only
	readFile(name string) ([]byte, error)
	readDir(name string) ([]fs.DirEntry, error)
	stat(name string) (fs.FileInfo, error)
	rename(from, to string) error
	remove(name string) error
	mkdir(name string) error
}

// file is an open file of a fileSystem.
type file interface {
	io.Writer
	io.WriterAt
	io.ReaderAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

// osFS is the operating system's filesystem.
type osFS struct{}

func (osFS) open(name string) (file, error) { return osFile(os.Open(name)) }
func (osFS) openWrite(name string) (file, error) {
	return osFile(os.OpenFile(name, os.O_WRONLY, 0o644))
}
func (osFS) create(name string) (file, error) {
	return osFile(os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644))
}
func (osFS) readFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) readDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) stat(name string) (fs.FileInfo, error)      { return os.Stat(name) }
func (osFS) rename(from, to string) error               { return os.Rename(from, to) }
func (osFS) remove(name string) error                   { return os.Remove(name) }
func (osFS) mkdir(name string) error                    { return os.Mkdir(name, 0o755) }

// osFile keeps a failed open's nil *os.File out of the file interface.
func osFile(f *os.File, err error) (file, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

// The durability protocols. A file's bytes are durable once the file is
// fsynced; its name (a create, rename or remove) once its directory is.
// A failed fsync is final for what it was to make durable: no later fsync
// writes it (Linux marks the failed writeback clean). So a name whose
// directory fsync failed is removed again, for the next attempt to make
// afresh, rather than left for a later fsync to cover.

// syncDir fsyncs a directory so the creates, renames and removes inside it
// are durable.
func syncDir(fsys fileSystem, dir string) error {
	d, err := fsys.open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// mkdirDurable creates dir and its missing parents, each made durable by
// an fsync of the directory holding it.
func mkdirDurable(fsys fileSystem, dir string) error {
	_, err := fsys.stat(dir)
	parent := filepath.Dir(dir)
	if !errors.Is(err, fs.ErrNotExist) || parent == dir {
		return err
	}
	if err := mkdirDurable(fsys, parent); err != nil {
		return err
	}
	if err := fsys.mkdir(dir); err != nil {
		return err
	}
	if err := syncDir(fsys, parent); err != nil {
		fsys.remove(dir)
		return err
	}
	return nil
}

// createDurable creates (or truncates) path holding header and makes both
// durable: the file's fsync, then its directory's. The file stays open for
// writing after the header. A failure removes the file again, so a reopen
// cannot take a segment whose name never became durable for its tail and
// append to it. WAL segments are created this way only.
func createDurable(fsys fileSystem, path string, header []byte) (file, error) {
	f, err := fsys.create(path)
	if err != nil {
		return nil, err
	}
	if _, err = f.Write(header); err == nil {
		if err = f.Sync(); err == nil {
			err = syncDir(fsys, filepath.Dir(path))
		}
	}
	if err != nil {
		f.Close()
		fsys.remove(path)
		return nil, err
	}
	return f, nil
}

// tempPath is where replaceDurable writes path's next content. A crash can
// leave it behind; it was never renamed into place, so it covers nothing and
// Open removes it.
func tempPath(path string) string { return path + ".tmp" }

// replaceDurable atomically replaces path with what write produces: the
// bytes go to tempPath, which is fsynced, closed and renamed over path, and
// then the directory is fsynced. A failure up to the rename removes the
// temp file and leaves path as it was; a nil return means the new content
// is durable under path.
func replaceDurable(fsys fileSystem, path string, write func(io.Writer) error) error {
	tmp := tempPath(path)
	f, err := fsys.create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if err = write(w); err == nil {
		if err = w.Flush(); err == nil {
			err = f.Sync()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.rename(tmp, path)
	}
	if err != nil {
		fsys.remove(tmp)
		return err
	}
	return syncDir(fsys, filepath.Dir(path))
}
