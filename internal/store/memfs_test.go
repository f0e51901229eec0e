package store

import (
	"bytes"
	"errors"
	"hash/fnv"
	"io"
	"io/fs"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// listSegments returns the segment indices present in dir on the operating
// system's filesystem, ascending.
func listSegments(dir string) ([]uint64, error) { return readSegments(osFS{}, dir) }

// memFS is an in-memory fileSystem that records every call that changes it,
// so that a test can rebuild the disk a crash after any call would leave
// (image) and fail a chosen call (fault). Durability follows the model the
// store is written against: a write or truncate reaches the disk once its
// file is fsynced, a create, rename or remove once its directory is. Until
// then it is volatile, and a crash keeps any subset of the volatile calls;
// a write may also be torn at a 512-byte boundary of the file.
type memFS struct {
	mu      sync.Mutex
	dirs    map[string]bool
	names   map[string]int // path -> inode, what the running program sees
	data    map[int][]byte // inode -> contents, likewise
	ops     []fsOp         // every call that changed something, in order
	nextIno int
	// faultAt is the index in ops of the call to fail with faultKind;
	// injected is set once it has been.
	faultAt   int
	faultKind faultKind
	injected  *fsOp
}

type opKind uint8

const (
	opMkdir    opKind = iota // name: a new directory
	opCreate                 // name: a new inode ino
	opWrite                  // ino: data at off
	opTruncate               // ino: to size off
	opRename                 // name -> to
	opRemove                 // name: a file or an empty directory
	opSync                   // ino: every earlier write and truncate of it is durable
	opSyncDir                // name: every earlier create, rename and remove in it is
)

// fsOp is one recorded call. A failed one is kept, so indices line up
// with a run that did not fail, and changes nothing.
type fsOp struct {
	kind     opKind
	name, to string
	ino      int
	off      int64
	data     []byte
	failed   bool
}

// faultKind is what the call at faultAt suffers.
type faultKind uint8

const (
	faultNone   faultKind = iota
	faultENOSPC           // a write fails with ENOSPC, storing nothing
	faultShort            // a write stores the first half of its bytes and fails
	faultRename           // a rename fails with EIO
	faultSync             // an fsync (file or directory) fails with EIO, making nothing durable
)

// hits reports whether the fault applies to a call of kind k.
func (f faultKind) hits(k opKind) bool {
	switch f {
	case faultENOSPC, faultShort:
		return k == opWrite
	case faultRename:
		return k == opRename
	case faultSync:
		return k == opSync || k == opSyncDir
	}
	return false
}

func (f faultKind) String() string {
	return [...]string{"none", "ENOSPC", "short write", "rename failure", "fsync error"}[f]
}

// faultErr is the error an injected fault returns, wrapped in a PathError.
func (f faultKind) err() error {
	switch f {
	case faultENOSPC:
		return syscall.ENOSPC
	case faultShort:
		return io.ErrShortWrite
	}
	return syscall.EIO
}

func newMemFS() *memFS {
	return &memFS{dirs: map[string]bool{".": true}, names: map[string]int{}, data: map[int][]byte{}, faultAt: -1}
}

// memFSFrom is a filesystem holding img as its durable starting state.
func memFSFrom(img image) *memFS {
	m := newMemFS()
	for d := range img.dirs {
		m.dirs[d] = true
	}
	for name, b := range img.files {
		m.nextIno++
		m.names[name] = m.nextIno
		m.data[m.nextIno] = bytes.Clone(b)
	}
	return m
}

// record appends op (under m.mu) and returns the fault to inject into it,
// if any: nil means perform the call.
func (m *memFS) record(op fsOp) (*fsOp, error) {
	m.ops = append(m.ops, op)
	rec := &m.ops[len(m.ops)-1]
	if len(m.ops)-1 != m.faultAt || !m.faultKind.hits(op.kind) {
		return rec, nil
	}
	cp := op
	m.injected = &cp
	return rec, &fs.PathError{Op: "injected " + m.faultKind.String(), Path: op.name, Err: m.faultKind.err()}
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

func (m *memFS) open(name string) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if m.dirs[name] {
		return &memFile{fs: m, name: name, dir: true}, nil
	}
	ino, ok := m.names[name]
	if !ok {
		return nil, notExist("open", name)
	}
	return &memFile{fs: m, name: name, ino: ino}, nil
}

func (m *memFS) openWrite(name string) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.names[filepath.Clean(name)]
	if !ok {
		return nil, notExist("open", name)
	}
	return &memFile{fs: m, name: name, ino: ino, writable: true}, nil
}

func (m *memFS) create(name string) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if !m.dirs[filepath.Dir(name)] {
		return nil, notExist("create", name)
	}
	if ino, ok := m.names[name]; ok { // O_TRUNC: the same inode, emptied
		if _, err := m.record(fsOp{kind: opTruncate, name: name, ino: ino}); err != nil {
			return nil, err
		}
		m.data[ino] = nil
		return &memFile{fs: m, name: name, ino: ino, writable: true}, nil
	}
	m.nextIno++
	ino := m.nextIno
	if _, err := m.record(fsOp{kind: opCreate, name: name, ino: ino}); err != nil {
		return nil, err
	}
	m.names[name], m.data[ino] = ino, nil
	return &memFile{fs: m, name: name, ino: ino, writable: true}, nil
}

func (m *memFS) readFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.names[filepath.Clean(name)]
	if !ok {
		return nil, notExist("read", name)
	}
	return bytes.Clone(m.data[ino]), nil
}

func (m *memFS) readDir(name string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if !m.dirs[name] {
		return nil, notExist("readdir", name)
	}
	var out []fs.DirEntry
	for p, ino := range m.names {
		if filepath.Dir(p) == name {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(p), size: int64(len(m.data[ino]))}))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) stat(name string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if m.dirs[name] {
		return memInfo{name: filepath.Base(name), dir: true}, nil
	}
	ino, ok := m.names[name]
	if !ok {
		return nil, notExist("stat", name)
	}
	return memInfo{name: filepath.Base(name), size: int64(len(m.data[ino]))}, nil
}

// memInfo describes a memFS file or directory.
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

func (m *memFS) rename(from, to string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	from, to = filepath.Clean(from), filepath.Clean(to)
	ino, ok := m.names[from]
	if !ok {
		return notExist("rename", from)
	}
	if rec, err := m.record(fsOp{kind: opRename, name: from, to: to}); err != nil {
		rec.failed = true
		return err
	}
	delete(m.names, from)
	m.names[to] = ino
	return nil
}

func (m *memFS) remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if m.dirs[name] {
		for p := range m.names {
			if filepath.Dir(p) == name {
				return &fs.PathError{Op: "remove", Path: name, Err: syscall.ENOTEMPTY}
			}
		}
		for d := range m.dirs {
			if filepath.Dir(d) == name && d != name {
				return &fs.PathError{Op: "remove", Path: name, Err: syscall.ENOTEMPTY}
			}
		}
		m.record(fsOp{kind: opRemove, name: name})
		delete(m.dirs, name)
		return nil
	}
	if _, ok := m.names[name]; !ok {
		return notExist("remove", name)
	}
	m.record(fsOp{kind: opRemove, name: name})
	delete(m.names, name)
	return nil
}

func (m *memFS) mkdir(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if m.dirs[name] {
		return &fs.PathError{Op: "mkdir", Path: name, Err: fs.ErrExist}
	}
	if !m.dirs[filepath.Dir(name)] {
		return notExist("mkdir", name)
	}
	m.record(fsOp{kind: opMkdir, name: name})
	m.dirs[name] = true
	return nil
}

// memFile is an open memFS file or directory.
type memFile struct {
	fs       *memFS
	name     string
	ino      int
	dir      bool
	writable bool
	pos      int64 // where Write writes
	closed   bool
}

var errFileMode = errors.New("memfs: file closed, or not open for this call")

func (f *memFile) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.pos)
	f.pos += int64(n)
	return n, err
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	m := f.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.closed || !f.writable {
		return 0, errFileMode
	}
	rec, err := m.record(fsOp{kind: opWrite, name: f.name, ino: f.ino, off: off, data: bytes.Clone(p)})
	n := len(p)
	if err != nil {
		if m.faultKind != faultShort {
			rec.failed = true
			return 0, err
		}
		n /= 2
		rec.data = rec.data[:n]
	}
	m.data[f.ino] = writeAt(m.data[f.ino], off, p[:n])
	return n, err
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	m := f.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.closed || f.dir {
		return 0, errFileMode
	}
	d := m.data[f.ino]
	if off >= int64(len(d)) {
		return 0, io.EOF
	}
	n := copy(p, d[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Sync() error {
	m := f.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.closed {
		return errFileMode
	}
	op := fsOp{kind: opSync, name: f.name, ino: f.ino}
	if f.dir {
		op = fsOp{kind: opSyncDir, name: f.name}
	}
	if rec, err := m.record(op); err != nil {
		rec.failed = true
		return err
	}
	return nil
}

func (f *memFile) Truncate(size int64) error {
	m := f.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.closed || !f.writable {
		return errFileMode
	}
	m.record(fsOp{kind: opTruncate, name: f.name, ino: f.ino, off: size})
	m.data[f.ino] = resize(m.data[f.ino], size)
	return nil
}

func (f *memFile) Close() error {
	m := f.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.closed {
		return errFileMode
	}
	f.closed = true
	return nil
}

func writeAt(d []byte, off int64, p []byte) []byte {
	if end := off + int64(len(p)); end > int64(len(d)) {
		d = resize(d, end)
	}
	copy(d[off:], p)
	return d
}

func resize(d []byte, size int64) []byte {
	if size <= int64(len(d)) {
		return d[:size]
	}
	return append(d, make([]byte, size-int64(len(d)))...)
}

// trace returns a copy of the calls recorded so far.
func (m *memFS) trace() []fsOp {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]fsOp(nil), m.ops...)
}

// calls returns how many calls have been recorded.
func (m *memFS) calls() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.ops)
}

// image is the disk as a crash leaves it: the directories and the files
// reachable by name.
type image struct {
	dirs  map[string]bool
	files map[string][]byte
}

// key identifies an image's content.
func (img image) key() uint64 {
	names := make([]string, 0, len(img.files))
	for n := range img.files {
		names = append(names, n)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
		h.Write(img.files[n])
		h.Write([]byte(strconv.Itoa(len(img.files[n]))))
	}
	return h.Sum64()
}

// durable marks the calls in ops that a crash right after the last one
// cannot lose: each write and truncate followed by a successful fsync of its
// file, with no failed fsync of it in between; each create, rename, remove
// and mkdir followed by an fsync of its directory (a mkdir's is its
// parent), with no failed fsync of that directory in between. A failed
// fsync is Linux's: it marks the pages of the failed writeback clean, so no
// later fsync of the file writes what came before it, though the running
// program still reads those bytes back; a directory's failed fsync loses
// the entries it was to make durable the same way.
func durable(ops []fsOp) []bool {
	out := make([]bool, len(ops))
	syncedIno, syncedDir := map[int]bool{}, map[string]bool{}
	for i := len(ops) - 1; i >= 0; i-- {
		op := &ops[i]
		if op.failed {
			switch op.kind {
			case opSync:
				syncedIno[op.ino] = false
			case opSyncDir:
				syncedDir[op.name] = false
			}
			continue
		}
		switch op.kind {
		case opSync:
			syncedIno[op.ino] = true
		case opSyncDir:
			syncedDir[op.name] = true
		case opWrite, opTruncate:
			out[i] = syncedIno[op.ino]
		case opCreate, opRemove, opMkdir:
			out[i] = syncedDir[filepath.Dir(op.name)]
		case opRename:
			out[i] = syncedDir[filepath.Dir(op.name)] && syncedDir[filepath.Dir(op.to)]
		}
	}
	return out
}

// tear is a write that reached the disk in part: the bytes before cut
// (head) or from cut on (!head).
type tear struct {
	op   int // index in ops; -1 for none
	cut  int
	head bool
}

// build replays ops (failed ones skipped, and the volatile ones keep
// rejects) onto an empty disk, with t applied.
func build(ops []fsOp, keep func(i int) bool, t tear) image {
	img := image{dirs: map[string]bool{".": true}, files: map[string][]byte{}}
	names, data := map[string]int{}, map[int][]byte{}
	for i := range ops {
		op := &ops[i]
		if op.failed || !keep(i) {
			continue
		}
		switch op.kind {
		case opMkdir:
			img.dirs[op.name] = true
		case opCreate:
			names[op.name] = op.ino
			if _, ok := data[op.ino]; !ok {
				data[op.ino] = nil
			}
		case opWrite:
			off, p := op.off, op.data
			if i == t.op && t.head {
				p = p[:t.cut]
			} else if i == t.op {
				off, p = off+int64(t.cut), p[t.cut:]
			}
			data[op.ino] = writeAt(data[op.ino], off, p)
		case opTruncate:
			data[op.ino] = resize(data[op.ino], op.off)
		case opRename:
			if ino, ok := names[op.name]; ok {
				delete(names, op.name)
				names[op.to] = ino
			}
		case opRemove:
			delete(names, op.name)
			delete(img.dirs, op.name)
		}
	}
	// A directory whose own entry, or an ancestor's, was lost is gone with
	// everything in it.
	var lost func(d string) bool
	lost = func(d string) bool { return d != "." && (!img.dirs[d] || lost(filepath.Dir(d))) }
	for d := range img.dirs {
		if lost(d) {
			delete(img.dirs, d)
		}
	}
	for name, ino := range names {
		if img.dirs[filepath.Dir(name)] {
			img.files[name] = bytes.Clone(data[ino])
		}
	}
	return img
}

// durableImage is the disk a crash after ops leaves when it keeps nothing
// volatile.
func durableImage(ops []fsOp) image {
	dur := durable(ops)
	return build(ops, func(i int) bool { return dur[i] }, tear{op: -1})
}

// sectorCuts returns the offsets inside a write where a 512-byte boundary
// of its file falls.
func sectorCuts(op *fsOp) []int {
	var cuts []int
	for b := (op.off/512 + 1) * 512; b < op.off+int64(len(op.data)); b += 512 {
		cuts = append(cuts, int(b-op.off))
	}
	return cuts
}

// crashImages calls visit with every disk the enumeration builds for a
// crash right after ops[k-1]: the durable calls, plus a subset of the
// volatile ones in program order. It keeps each prefix of the volatile
// calls, all of them but one, and each prefix whose last call is a write
// torn at every sector boundary, head or tail; and every subset of the
// last maxSubsetCalls volatile calls (the earlier ones kept), each with
// every kept write torn in turn.
func crashImages(ops []fsOp, k int, visit func(image)) {
	ops = ops[:k]
	dur := durable(ops)
	var vol []int
	for i := range ops {
		if !ops[i].failed && !dur[i] && ops[i].kind != opSync && ops[i].kind != opSyncDir {
			vol = append(vol, i)
		}
	}
	emit := func(kept map[int]bool, torn []int) {
		keep := func(i int) bool { return dur[i] || kept[i] }
		visit(build(ops, keep, tear{op: -1}))
		for _, w := range torn {
			if ops[w].kind != opWrite {
				continue
			}
			for _, cut := range sectorCuts(&ops[w]) {
				visit(build(ops, keep, tear{op: w, cut: cut, head: true}))
				visit(build(ops, keep, tear{op: w, cut: cut}))
			}
		}
	}
	for j := 0; j <= len(vol); j++ { // in-order prefixes, the last call torn
		kept := map[int]bool{}
		for _, i := range vol[:j] {
			kept[i] = true
		}
		emit(kept, vol[max(j-1, 0):j])
	}
	for _, drop := range vol { // all but one
		kept := map[int]bool{}
		for _, i := range vol {
			kept[i] = i != drop
		}
		emit(kept, nil)
	}
	const maxSubsetCalls = 12
	free := vol[max(len(vol)-maxSubsetCalls, 0):]
	for mask := 0; mask < 1<<len(free); mask++ {
		kept := map[int]bool{}
		var torn []int
		for _, i := range vol[:len(vol)-len(free)] {
			kept[i] = true
		}
		for b, i := range free {
			if mask&(1<<b) != 0 {
				kept[i] = true
				torn = append(torn, i)
			}
		}
		emit(kept, torn)
	}
}

// goroutines returns the stacks of the running goroutines by id.
func goroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(g, "goroutine "), " "); ok {
			out[id] = g
		}
	}
	return out
}

// checkNoLeakedGoroutines fails t if a goroutine running this package's
// code, such as a WAL committer, was started after before was taken and is
// still alive. Goroutines are given a second to wind down.
func checkNoLeakedGoroutines(t testing.TB, before map[string]string) {
	t.Helper()
	var leaked []string
	for deadline := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
		leaked = leaked[:0]
		for id, g := range goroutines() {
			if _, old := before[id]; !old && strings.Contains(g, "vap/internal/store.") && !strings.Contains(g, "vap/internal/store.Test") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, g := range leaked {
		t.Errorf("leaked goroutine:\n%s", g)
	}
}
