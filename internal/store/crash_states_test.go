package store

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"
)

// crashOpts is the store the scripted workload drives: commits happen only
// when a Sync, a Snapshot or Close asks for one, so the recorded calls are
// the same on every run, and segments are small enough that the script
// crosses one.
func crashOpts() Options {
	return Options{Dir: "db", SegmentBytes: 2048, CommitInterval: time.Hour, Shards: 4, RecoverWorkers: 4}
}

// crashAck is what a successful Sync, Snapshot or Close acknowledged: once
// ops holds `at` calls, a crash must keep n[id] samples of every meter and
// every meter in meters.
type crashAck struct {
	at     int
	n      map[int64]int
	meters map[int64]bool
}

// crashStep is one step of the script and how it ended.
type crashStep struct {
	name       string
	start, end int // calls recorded before and after it
	err        error
	walFailed  bool // the open store's WAL holds a sticky commit error after it
}

// crashRun drives the scripted workload on a memFS and remembers what it
// appended (hist) and what the store acknowledged (acks).
type crashRun struct {
	fs     *memFS
	s      *Store
	wal    *WAL // the open store's, kept past Close
	hist   map[int64][]Sample
	meters map[int64]bool
	acks   []crashAck
	steps  []crashStep
	// corrupt counts the crash states checkImage saw refused as corrupt.
	corrupt int
}

func newCrashRun(fsys *memFS) *crashRun {
	return &crashRun{fs: fsys, hist: map[int64][]Sample{}, meters: map[int64]bool{}}
}

var errNotOpen = errors.New("store not open")

func (r *crashRun) step(name string, f func() error) error {
	st := crashStep{name: name, start: r.fs.calls()}
	if r.s == nil && name != "open" {
		st.err = errNotOpen
	} else {
		st.err = f()
	}
	st.end = r.fs.calls()
	if r.wal != nil {
		r.wal.mu.Lock()
		st.walFailed = r.wal.err != nil
		r.wal.mu.Unlock()
	}
	r.steps = append(r.steps, st)
	return st.err
}

func (r *crashRun) ack() {
	a := crashAck{at: r.fs.calls(), n: map[int64]int{}, meters: map[int64]bool{}}
	for id, h := range r.hist {
		a.n[id] = len(h)
	}
	for id := range r.meters {
		a.meters[id] = true
	}
	r.acks = append(r.acks, a)
}

// required is the strongest acknowledgement a crash after k calls must keep.
func (r *crashRun) required(k int) crashAck {
	var out crashAck
	for _, a := range r.acks {
		if a.at <= k {
			out = a
		}
	}
	return out
}

// crashSample is meter id's i-th sample: every 900 s, or every hour for
// the hourly meter, whose hourly tier is dense pages.
func crashSample(id int64, i int) Sample {
	step := int64(900)
	if id == crashHourly {
		step = 3600
	}
	return Sample{TS: 1_600_000_000 + int64(i)*step, Value: float64(id*1000+int64(i)) + 0.25}
}

// crashHourly is the script's hourly meter.
const crashHourly = 5

func (r *crashRun) open() {
	r.step("open", func() error {
		r.wal = nil
		s, err := open(crashOpts(), r.fs, nil)
		if err != nil {
			return err
		}
		r.s, r.wal = s, s.wal
		// What the store recovered is the history from here on: appends that
		// were never acknowledged may be gone.
		got := dumpStore(s)
		for id := range r.hist {
			r.hist[id] = r.hist[id][:len(got[id])]
		}
		for id := range r.meters {
			if _, ok := got[id]; !ok {
				delete(r.meters, id)
			}
		}
		return nil
	})
}

func (r *crashRun) putMeter(id int64) {
	r.step(fmt.Sprintf("meter %d", id), func() error {
		err := r.s.PutMeter(Meter{ID: id, Location: testPoint(float64(id)*0.01, 0)})
		if err == nil {
			r.meters[id] = true
		}
		return err
	})
}

func (r *crashRun) append(id int64, from, n int) {
	r.step(fmt.Sprintf("append %d [%d, %d)", id, from, from+n), func() error {
		smps := make([]Sample, n)
		for i := range smps {
			smps[i] = crashSample(id, from+i)
		}
		got, err := r.s.AppendBatch(id, smps)
		r.hist[id] = append(r.hist[id], smps[:got]...)
		return err
	})
}

func (r *crashRun) sync() {
	if r.step("sync", func() error { return r.s.Sync() }) == nil {
		r.ack()
	}
}

func (r *crashRun) snapshot() {
	if r.step("snapshot", func() error { return r.s.Snapshot() }) == nil {
		r.ack()
	}
}

func (r *crashRun) close() {
	err := r.step("close", func() error {
		err := r.s.Close()
		r.s = nil
		return err
	})
	if err == nil {
		r.ack()
	}
}

// script is the workload: meters, batches with and without Sync, a commit
// that crosses SegmentBytes and rotates, a Snapshot (temp write, rename, WAL
// retirement), reopens and more appends, and a second Snapshot whose
// segment cut rotates and which replaces the first. Every open derives the
// hourly meter's dense hourly pages from the samples it recovers.
func (r *crashRun) script() {
	r.open()
	r.putMeter(1)
	r.putMeter(2)
	r.putMeter(3)
	r.putMeter(crashHourly)
	r.sync()
	r.append(1, 0, 20)
	r.append(2, 0, 10)
	r.append(crashHourly, 0, 2*denseMinRun)
	r.sync()
	r.append(3, 0, 5) // rides the next commit
	r.append(2, 10, 80)
	r.sync() // crosses SegmentBytes: the commit rotates
	r.snapshot()
	r.append(crashHourly, 2*denseMinRun, denseMinRun)
	r.append(1, 20, 10)
	r.sync()
	r.putMeter(4)
	r.append(4, 0, 12) // committed by Close
	r.close()
	r.open()
	r.append(2, 90, 15)
	r.sync()
	r.append(1, 30, 40)
	r.snapshot()      // its cut rotates; it replaces the first snapshot
	r.append(3, 5, 5) // committed by Close
	r.close()
	r.open()
	r.append(4, 12, 30)
	r.sync()
	r.close()
}

// dumpStore returns every meter's samples, keyed by meter.
func dumpStore(s *Store) map[int64][]Sample {
	out := map[int64][]Sample{}
	for _, id := range s.Catalog().IDs() {
		smps, _ := s.Range(id, math.MinInt64, math.MaxInt64)
		out[id] = smps
	}
	return out
}

// recoverImage opens img with recovery on workers goroutines and returns
// what the store holds. The recovered tiers must equal a fold of the
// recovered samples; the store then snapshots, and its reload must hold the
// same samples and tiers again, so every crash state's tiers, dense pages
// among them, are derived again from its snapshot. A panic is an error, and so
// is any failure after the first open (never one that reads as corrupt).
func recoverImage(img image, workers int) (got map[int64][]Sample, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("open panicked: %v", p)
		}
	}()
	opts := crashOpts()
	opts.RecoverWorkers = workers
	fsys := memFSFrom(img)
	s, err := open(opts, fsys, nil)
	if err != nil {
		return nil, err
	}
	got = dumpStore(s)
	for pass := 0; ; pass++ {
		if err := tiersRebuilt(s); err != nil {
			return nil, fmt.Errorf("pass %d: %v", pass, err)
		}
		if pass == 1 {
			break
		}
		if err := s.Snapshot(); err != nil {
			return nil, fmt.Errorf("snapshot after recovery: %v", err)
		}
		if err := s.Close(); err != nil {
			return nil, fmt.Errorf("close after recovery: %v", err)
		}
		if s, err = open(opts, fsys, nil); err != nil {
			return nil, fmt.Errorf("reopen of the recovered store's snapshot: %v", err)
		}
		if again := dumpStore(s); !sameStore(again, got) {
			return nil, fmt.Errorf("the recovered store's snapshot reloads other samples")
		}
	}
	if err := s.Close(); err != nil {
		return nil, fmt.Errorf("close after reload: %v", err)
	}
	return got, nil
}

// checkImage opens img with serial and with parallel recovery and returns
// what is wrong with it: a panic, an open that fails other than as
// corruption (*CorruptError or ErrCorrupt), the two recoveries disagreeing,
// a meter that is not a prefix of its append history, or a loss of what req
// acknowledged. A store that refuses to open as corrupt, by both recoveries,
// passes and is counted in r.corrupt.
func (r *crashRun) checkImage(img image, req crashAck) []string {
	serial, serr := recoverImage(img, 1)
	parallel, perr := recoverImage(img, 4)
	if errors.Is(serr, ErrCorrupt) && errors.Is(perr, ErrCorrupt) {
		r.corrupt++
		return nil
	}
	if serr != nil || perr != nil {
		return []string{fmt.Sprintf("open: serial recovery: %v; parallel recovery: %v", serr, perr)}
	}
	var bad []string
	if !sameStore(serial, parallel) {
		bad = append(bad, "parallel replay differs from serial WAL.Replay")
	}
	for id, smps := range serial {
		if h := r.hist[id]; len(smps) > len(h) || !slices.Equal(smps, h[:len(smps)]) {
			bad = append(bad, fmt.Sprintf("meter %d holds %d samples that are not a prefix of its %d appended", id, len(smps), len(h)))
		}
	}
	for id := range req.meters {
		if _, ok := serial[id]; !ok {
			bad = append(bad, fmt.Sprintf("acknowledged meter %d is gone", id))
		}
	}
	for id, n := range req.n {
		if len(serial[id]) < n {
			bad = append(bad, fmt.Sprintf("meter %d holds %d samples, %d were acknowledged", id, len(serial[id]), n))
		}
	}
	return bad
}

func sameStore(a, b map[int64][]Sample) bool {
	return maps.EqualFunc(a, b, func(x, y []Sample) bool { return slices.Equal(x, y) })
}

// describe names the calls up to k for a failure message.
func describe(ops []fsOp, k int) string {
	var b strings.Builder
	for i, op := range ops[:k] {
		name := filepath.Base(op.name)
		switch op.kind {
		case opWrite:
			fmt.Fprintf(&b, "\n  %3d write %s @%d +%d", i, name, op.off, len(op.data))
		case opRename:
			fmt.Fprintf(&b, "\n  %3d rename %s -> %s", i, name, filepath.Base(op.to))
		default:
			fmt.Fprintf(&b, "\n  %3d %s %s", i, [...]string{"mkdir", "create", "write", "truncate", "rename", "remove", "fsync", "fsync dir"}[op.kind], name)
		}
		if op.failed {
			b.WriteString(" (failed)")
		}
	}
	return b.String()
}

// TestCrashStates runs the scripted workload on a recording filesystem and
// reopens every disk a crash can leave after each of its calls (see
// crashImages): each must open, every meter must hold a prefix of what was
// appended to it, serial and parallel replay must agree, and nothing a
// Sync, Snapshot or Close acknowledged before the crash may be lost.
func TestCrashStates(t *testing.T) {
	before := goroutines()
	r := newCrashRun(newMemFS())
	r.script()
	for _, st := range r.steps {
		if st.err != nil {
			t.Fatalf("script step %q: %v", st.name, st.err)
		}
	}
	ops := r.fs.trace()
	var order []uint64
	images, lastK := map[uint64]image{}, map[uint64]int{}
	for k := 0; k <= len(ops); k++ {
		crashImages(ops, k, func(img image) {
			key := img.key()
			if _, ok := images[key]; !ok {
				order = append(order, key)
				images[key] = img
			}
			lastK[key] = k // the latest crash point asks the most
		})
	}
	failures := 0
	for _, key := range order {
		k := lastK[key]
		if bad := r.checkImage(images[key], r.required(k)); len(bad) > 0 {
			failures++
			if failures <= 3 {
				t.Errorf("crash after call %d: %s\ncalls:%s", k, strings.Join(bad, "; "), describe(ops, k))
			}
		}
	}
	if failures > 3 {
		t.Errorf("%d more crash states failed", failures-3)
	}
	t.Logf("%d calls, %d distinct crash states, %d refused as corrupt", len(ops), len(order), r.corrupt)
	checkNoLeakedGoroutines(t, before)
}

// TestFaultInjection runs the scripted workload once per call it makes that
// can fail (a write: ENOSPC or a short write; a rename; an fsync of a file
// or a directory), failing that call. The contract: a failed commit
// acknowledges nothing in its batch, and every later append, Sync,
// Snapshot and Close of that open store fails fast with the same error,
// because the segment is not trusted again; a failed Snapshot leaves the WAL working;
// and the disk, both as the failure left it and as a crash right after it
// and at the end of the script leaves it, reopens with everything
// acknowledged (checkImage) and is never refused as corrupt: the reopen
// wrote back what the failed fsync left only in the page cache. No
// goroutine outlives its store. Subtests are named by callNames. The seeded
// first start (OpenSeeded on an empty directory) has its calls failed in
// turn too, in the subtests named "seeded open" (runSeededFault).
func TestFaultInjection(t *testing.T) {
	clean := newCrashRun(newMemFS())
	clean.script()
	ops := clean.fs.trace()
	names := callNames(clean, ops)
	seeded := newMemFS()
	s, err := open(crashOpts(), seeded, seedFill)
	if err != nil {
		t.Fatal(err)
	}
	seededOps := seeded.trace()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []faultKind{faultENOSPC, faultShort, faultRename, faultSync} {
		for k := range ops {
			if !kind.hits(ops[k].kind) {
				continue
			}
			t.Run(fmt.Sprintf("%s at %s", kind, names[k]), func(t *testing.T) {
				before := goroutines()
				runFault(t, kind, k)
				checkNoLeakedGoroutines(t, before)
			})
		}
		for k := range seededOps {
			if !kind.hits(seededOps[k].kind) {
				continue
			}
			t.Run(fmt.Sprintf("seeded open: %s at call %d", kind, k), func(t *testing.T) {
				before := goroutines()
				runSeededFault(t, kind, k)
				checkNoLeakedGoroutines(t, before)
			})
		}
	}
}

// runSeededFault fails call k of the seeded first start with kind. The open
// must return the injected error, and the disk it leaves, as it is and as a
// crash after each call from the failed one on leaves it, must open to no
// meter or to every sample the fill appended, never refused as corrupt.
// The next seeded open of the disk as it is holds every sample, and so does
// a crash after its first acknowledged append: the failed open left no
// snapshot whose name no fsync can make durable any more.
func runSeededFault(t *testing.T, kind faultKind, k int) {
	fsys := newMemFS()
	fsys.faultAt, fsys.faultKind = k, kind
	s, err := open(crashOpts(), fsys, seedFill)
	if err == nil {
		s.Close()
	}
	ops := fsys.trace()
	if fsys.injected == nil {
		t.Fatalf("call %d is not the one the clean seeded open made:%s", k, describe(ops, min(k+1, len(ops))))
	}
	if !errors.Is(err, kind.err()) {
		t.Errorf("%s at call %d: the seeded open returned %v, want the injected error", kind, k, err)
	}
	all := func(int) bool { return true }
	check := func(what string, img image) {
		if got := seededImage(img); got != "empty" && got != "whole" {
			t.Errorf("%s at call %d, %s: %s\ncalls:%s", kind, k, what, got, describe(ops, len(ops)))
		}
	}
	check("the disk after the failed open", build(ops, all, tear{op: -1}))
	for end := len(ops); end > k; end-- {
		check(fmt.Sprintf("a crash after call %d", end-1), durableImage(ops[:end]))
	}
	s, err = open(crashOpts(), fsys, seedFill)
	if err != nil {
		t.Fatalf("%s at call %d: the next seeded open: %v", kind, k, err)
	}
	want := seedWant()
	if got := dumpStore(s); !sameStore(got, want) {
		t.Errorf("%s at call %d: the next seeded open holds other samples than the fill appended", kind, k)
	}
	next := crashSample(1, len(want[1]))
	want[1] = append(want[1], next)
	if err := s.Append(1, next); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := recoverImage(durableImage(fsys.trace()), 1)
	if err != nil || !sameStore(got, want) {
		t.Errorf("%s at call %d: a crash after the next seeded open's acknowledged append: %v, and the samples are the fill's and the append: %v", kind, k, err, sameStore(got, want))
	}
}

// callNames names each call of a clean run's trace for the subtest that
// fails it. The workload's calls are numbered in order ("call 16"). The
// calls by which an open makes durable what it found are named for that
// instead: the fsync of a new store directory's parent, and the write-back
// of the tail ("open 2's write-back"). A fault in the workload so keeps its
// name whatever those open-time protocols cost; failure messages give the
// call's index in the trace, as describe lists it.
func callNames(r *crashRun, ops []fsOp) []string {
	names := make([]string, len(ops))
	n, opens := 0, 0
	for _, st := range r.steps {
		if st.name == "open" {
			opens++
		}
		created := map[int]bool{}
		for k := st.start; k < st.end; k++ {
			op := &ops[k]
			if op.kind == opCreate {
				created[op.ino] = true
			}
			switch {
			case st.name == "open" && op.kind == opSyncDir && op.name == filepath.Dir(crashOpts().Dir):
				names[k] = "the store directory's parent"
			case st.name == "open" && (op.kind == opWrite || op.kind == opTruncate || op.kind == opSync) && !created[op.ino]:
				names[k] = fmt.Sprintf("open %d's write-back", opens)
			default:
				names[k] = fmt.Sprintf("call %d", n)
				n++
			}
		}
	}
	return names
}

func runFault(t *testing.T, kind faultKind, k int) {
	fsys := newMemFS()
	fsys.faultAt, fsys.faultKind = k, kind
	r := newCrashRun(fsys)
	r.script()
	ops := fsys.trace()
	if fsys.injected == nil {
		t.Fatalf("call %d is not the one the clean run made:%s", k, describe(ops, min(k+1, len(ops))))
	}
	op, want := fsys.injected, kind.err()
	hit := -1
	for i, st := range r.steps {
		if st.start <= k && k < st.end {
			hit = i
		}
	}
	st := r.steps[hit]
	_, isSegment := parseSegmentName(filepath.Base(op.name))
	if isSegment && st.name != "open" {
		// A commit (or a rotation inside one) failed.
		if !errors.Is(st.err, want) || !st.walFailed {
			t.Errorf("%s on %s during %q: step returned %v and the WAL failed=%v; want the injected error, sticky", kind, op.name, st.name, st.err, st.walFailed)
		}
	}
	if strings.HasPrefix(filepath.Base(op.name), "snapshot.vap") {
		if !errors.Is(st.err, want) || st.walFailed {
			t.Errorf("%s on %s during %q: step returned %v and the WAL failed=%v; want the injected error and a working WAL", kind, op.name, st.name, st.err, st.walFailed)
		}
	}
	for _, later := range r.steps[hit+1:] {
		if later.name == "open" || !st.walFailed {
			break
		}
		// An append to a meter whose registration failed fast is refused
		// before it reaches the WAL.
		if !errors.Is(later.err, want) && !errors.Is(later.err, ErrUnknownMeter) {
			t.Errorf("after the WAL failed, %q returned %v; want the injected error", later.name, later.err)
		}
	}
	// The disk as the failure left it, and as a crash after each call from
	// the failed one on leaves it when it keeps nothing volatile.
	all := func(int) bool { return true }
	check := func(what string, img image, req crashAck) {
		if bad := r.checkImage(img, req); len(bad) > 0 {
			t.Errorf("%s on call %d, %s: %s\ncalls:%s", kind, k, what, strings.Join(bad, "; "), describe(ops, len(ops)))
		}
	}
	check("the disk after the script", build(ops, all, tear{op: -1}), r.required(len(ops)))
	seen := map[uint64]bool{}
	for end := len(ops); end > k; end-- { // latest first: it asks the most
		img := durableImage(ops[:end])
		if key := img.key(); !seen[key] {
			seen[key] = true
			check(fmt.Sprintf("a crash after call %d", end-1), img, r.required(end))
		}
	}
	if r.corrupt > 0 {
		t.Errorf("%s on call %d: %d of the disks it leaves refuse to open as corrupt", kind, k, r.corrupt)
	}
}

// TestReopenAfterFailedSegmentCreation: a rotation whose new segment fails
// at its header write, its fsync or its directory's fsync leaves a segment
// whose name is not durable, and after a failed directory fsync no later
// one makes it so. The failed creation removes the segment again, so the
// next open does not take it for its tail; otherwise a crash after the next
// acknowledged Sync would lose that Sync's samples with the segment's name.
func TestReopenAfterFailedSegmentCreation(t *testing.T) {
	clean := newCrashRun(newMemFS())
	clean.script()
	ops := clean.fs.trace()
	seg2 := slices.IndexFunc(ops, func(op fsOp) bool {
		return op.kind == opCreate && filepath.Base(op.name) == segmentName(2)
	})
	if seg2 < 0 || ops[seg2+1].kind != opWrite || ops[seg2+2].kind != opSync || ops[seg2+3].kind != opSyncDir {
		t.Fatalf("the script no longer creates segment 2 as create, write, fsync, fsync dir:%s", describe(ops, len(ops)))
	}
	for _, c := range []struct {
		kind faultKind
		k    int
	}{{faultENOSPC, seg2 + 1}, {faultShort, seg2 + 1}, {faultSync, seg2 + 2}, {faultSync, seg2 + 3}} {
		before := goroutines()
		runFault(t, c.kind, c.k)
		checkNoLeakedGoroutines(t, before)
	}
}

// TestFailedOpenLeavesNoCommitter: an open that fails after the WAL's
// committer started (here, replay meets a corrupt sealed segment) closes
// the WAL again, so no committer outlives it.
func TestFailedOpenLeavesNoCommitter(t *testing.T) {
	before := goroutines()
	fsys := newMemFS()
	s, err := open(crashOpts(), fsys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutMeter(Meter{ID: 1, Location: testPoint(0, 0)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // each commit crosses SegmentBytes and rotates
		smps := make([]Sample, 80)
		for j := range smps {
			smps[j] = crashSample(1, i*80+j)
		}
		if _, err := s.AppendBatch(1, smps); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := fsys.data[fsys.names[filepath.Join("db", segmentName(1))]]
	seg[len(seg)-1] ^= 0xff // the last frame's CRC
	if _, err := open(crashOpts(), fsys, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with a corrupt sealed segment: %v, want ErrCorrupt", err)
	}
	checkNoLeakedGoroutines(t, before)
}

// TestNewNestedDirSurvivesCrash: open creates every missing level of Dir,
// and a new directory's name is durable only once the directory holding it
// is fsynced. A crash after the first acknowledged Sync must find the
// store, whichever level was new, also after an open whose fsync of a new
// level's parent failed: no later fsync makes that name durable, so the
// failed open removes the level again and the next open makes it afresh.
func TestNewNestedDirSurvivesCrash(t *testing.T) {
	// The first open's calls: mkdir a, fsync ., mkdir a/b, fsync a.
	for _, fault := range []int{-1, 1, 3} {
		before := goroutines()
		fsys := newMemFS()
		fsys.faultAt, fsys.faultKind = fault, faultSync
		opts := crashOpts()
		opts.Dir = filepath.Join("a", "b")
		if fault >= 0 {
			if _, err := open(opts, fsys, nil); !errors.Is(err, syscall.EIO) {
				t.Fatalf("fsync fault at call %d: open returned %v, want EIO", fault, err)
			}
		}
		s, err := open(opts, fsys, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutMeter(Meter{ID: 1, Location: testPoint(0, 0)}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AppendBatch(1, []Sample{crashSample(1, 0), crashSample(1, 1)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		acked := fsys.calls()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		ops := fsys.trace()
		for k := acked; k <= len(ops); k++ {
			s, err := open(opts, memFSFrom(durableImage(ops[:k])), nil)
			if err != nil {
				t.Fatalf("fsync fault at call %d, crash after call %d: %v", fault, k-1, err)
			}
			if got := dumpStore(s); len(got[1]) != 2 {
				t.Errorf("fsync fault at call %d, crash after call %d: meter 1 holds %d samples, 2 were acknowledged\ncalls:%s", fault, k-1, len(got[1]), describe(ops, k))
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		checkNoLeakedGoroutines(t, before)
	}
}

// statFaultFS is a memFS whose stat of one file name fails with err.
type statFaultFS struct {
	*memFS
	name string
	err  error
}

func (f statFaultFS) stat(name string) (fs.FileInfo, error) {
	if filepath.Base(name) == f.name {
		return nil, &fs.PathError{Op: "stat", Path: name, Err: f.err}
	}
	return f.memFS.stat(name)
}

// TestStatErrorIsNotAbsence: only fs.ErrNotExist means a snapshot or a
// legacy wal.log is absent. A snapshot that cannot be stat'ed, read as
// absent, would open the WAL suffix alone (the segments it covered are
// retired), and the next Snapshot would overwrite the good file with that
// partial store; so Open fails instead, and the disk still opens in full.
func TestStatErrorIsNotAbsence(t *testing.T) {
	r := newCrashRun(newMemFS())
	r.script()
	for _, c := range []struct {
		name string
		err  error
	}{{"snapshot.vap", syscall.EACCES}, {"snapshot.vap", syscall.EIO}, {legacyWALName, syscall.EIO}} {
		before := goroutines()
		fsys := memFSFrom(durableImage(r.fs.trace()))
		if s, err := open(crashOpts(), statFaultFS{fsys, c.name, c.err}, nil); !errors.Is(err, c.err) {
			if err == nil {
				s.Close()
			}
			t.Errorf("stat of %s fails with %v: open returned %v, want that error", c.name, c.err, err)
		}
		checkNoLeakedGoroutines(t, before)
		s, err := open(crashOpts(), fsys, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := dumpStore(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !sameStore(got, r.hist) {
			t.Errorf("stat of %s failed: the disk no longer opens with every append", c.name)
		}
	}
}
