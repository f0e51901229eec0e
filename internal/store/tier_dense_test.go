package store

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// generalTier is the rollup tier with general buckets only, one 48-byte
// RollupBucket per bucket, opened by the rules rollupTier.fold follows. It
// is the reference the dense-page differentials hold the live tier to.
type generalTier struct {
	res     int64
	buckets []RollupBucket
}

func (t *generalTier) fold(smp Sample) {
	if n := len(t.buckets); n > 0 {
		last := &t.buckets[n-1]
		d, res := uint64(smp.TS)-uint64(last.Start), uint64(t.res)
		if d < res {
			last.FoldVals([]float64{smp.Value})
			return
		}
		if d < 2*res {
			t.open(last.Start + t.res).FoldVals([]float64{smp.Value})
			return
		}
	}
	t.open(smp.TS - mod64(smp.TS, t.res)).FoldVals([]float64{smp.Value})
}

func (t *generalTier) open(start int64) *Fold {
	t.buckets = append(t.buckets, RollupBucket{Start: start, Fold: EmptyFold()})
	return &t.buckets[len(t.buckets)-1].Fold
}

// generalFold folds smps into a general-only tier of resolution res.
func generalFold(smps []Sample, res int64) []RollupBucket {
	t := generalTier{res: res}
	for _, smp := range smps {
		t.fold(smp)
	}
	return t.buckets
}

// densePattern is one sample stream the dense-page tests fold.
type densePattern struct {
	name string
	smps []Sample
}

// densePatterns returns the streams the differential and the footprint
// bound run: regular, gapped, bursty and sub-hourly meters, a second
// sample landing in the live last bucket after runs of every length around
// the page and run thresholds, single-bucket runs between gaps, and the
// values whose folds are easy to get wrong (NaN, -0, ±Inf).
func densePatterns() []densePattern {
	const hour = int64(3600)
	const t0 = int64(1483228800)
	rng := rand.New(rand.NewSource(7))
	val := func(i int) float64 { return float64(i%29)*0.37 - 3 }
	var pats []densePattern
	add := func(name string, f func(emit func(ts int64, v float64))) {
		var smps []Sample
		f(func(ts int64, v float64) { smps = append(smps, Sample{TS: ts, Value: v}) })
		pats = append(pats, densePattern{name, smps})
	}
	add("regular hourly", func(emit func(int64, float64)) {
		for i := 0; i < 1500; i++ {
			emit(t0+int64(i)*hour, val(i))
		}
	})
	add("hourly, off the hour", func(emit func(int64, float64)) {
		for i := 0; i < 600; i++ {
			emit(t0+int64(i)*hour+1234, val(i))
		}
	})
	add("gapped runs", func(emit func(int64, float64)) {
		h := 0
		for k := 0; k < 120; k++ {
			run := []int{1, 2, denseMinRun - 1, denseMinRun, denseMinRun + 1, 40, tierPageBuckets + 3}[k%7]
			for j := 0; j < run; j++ {
				emit(t0+int64(h)*hour, val(h))
				h++
			}
			h += []int{1, 2, 30}[k%3]
		}
	})
	add("single buckets between gaps", func(emit func(int64, float64)) {
		for i := 0; i < 900; i++ {
			emit(t0+int64(2*i)*hour, val(i))
		}
	})
	add("bursty", func(emit func(int64, float64)) {
		for h := 0; h < 1200; h++ {
			n := 1
			if rng.Intn(9) == 0 {
				n = 2 + rng.Intn(3)
			}
			for j := 0; j < n; j++ {
				emit(t0+int64(h)*hour+int64(j)*600, val(h+j))
			}
		}
	})
	add("alternating single and double", func(emit func(int64, float64)) {
		for h := 0; h < 800; h++ {
			emit(t0+int64(h)*hour, val(h))
			if h%2 == 1 {
				emit(t0+int64(h)*hour+1800, val(h+1))
			}
		}
	})
	add("sub-hourly", func(emit func(int64, float64)) {
		for i := 0; i < 2000; i++ {
			emit(t0+int64(i)*600, val(i))
		}
	})
	add("second sample in the last bucket", func(emit func(int64, float64)) {
		h := 0
		for _, run := range []int{1, 2, denseMinRun - 1, denseMinRun, denseMinRun + 1, tierPageBuckets - 1, tierPageBuckets, tierPageBuckets + 1} {
			for j := 0; j < run; j++ {
				emit(t0+int64(h)*hour, val(h))
				h++
			}
			emit(t0+int64(h-1)*hour+60, val(h)) // into the live last bucket
			emit(t0+int64(h-1)*hour+120, math.NaN())
		}
	})
	add("NaN, -0 and ±Inf", func(emit func(int64, float64)) {
		special := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
			math.Float64frombits(0x7ff8000000000001), math.SmallestNonzeroFloat64, -math.MaxFloat64}
		for h := 0; h < 700; h++ {
			v := val(h)
			if h%3 == 0 {
				v = special[(h/3)%len(special)]
			}
			emit(t0+int64(h)*hour, v)
			if h%50 == 49 {
				emit(t0+int64(h)*hour+10, special[(h/50)%len(special)])
			}
		}
	})
	add("int64 extremes", func(emit func(int64, float64)) {
		for i := 0; i < 300; i++ {
			emit(math.MinInt64+2*86400+int64(i)*hour, val(i))
		}
		for i := 0; i < 300; i++ {
			emit(math.MaxInt64-2*86400-int64(300-i)*hour, val(i))
		}
	})
	return pats
}

// denseAppendModes are the ways the differential feeds a stream: 1 is
// per-sample Append, anything else AppendBatch runs of that many samples
// (0: the whole stream in one batch).
var denseAppendModes = []int{1, 7, tierPageBuckets, 1000, 0}

// appendPattern feeds smps to meter 1 of st in runs of batch samples.
func appendPattern(t *testing.T, st *Store, smps []Sample, batch int) {
	t.Helper()
	if batch == 0 {
		batch = len(smps)
	}
	for i := 0; i < len(smps); i += batch {
		var err error
		if batch == 1 {
			err = st.Append(1, smps[i])
		} else {
			_, err = st.AppendBatch(1, smps[i:min(i+batch, len(smps))])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// sameBuckets reports where got and want first differ bit for bit.
func sameBuckets(got, want []RollupBucket) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d buckets, want %d", len(got), len(want))
	}
	for i := range got {
		if !rollupBucketEqual(&got[i], &want[i]) {
			return fmt.Errorf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// TestDenseTierMatchesGeneral folds every dense pattern two ways, through
// the live tier and through the general-only reference, and compares every
// bucket bit for bit in both default tiers. Meanwhile two readers take
// TierScan captures of the whole tier, each of which must be the reference
// fold of exactly the samples its version counts; under -race this also
// checks that a capture never reads a slot an append writes.
func TestDenseTierMatchesGeneral(t *testing.T) {
	for _, pat := range densePatterns() {
		for _, batch := range denseAppendModes {
			t.Run(fmt.Sprintf("%s/batch %d", pat.name, batch), func(t *testing.T) {
				st, err := Open(Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				if err := st.PutMeter(testMeter(1)); err != nil {
					t.Fatal(err)
				}
				done := make(chan struct{})
				var readers sync.WaitGroup
				for r := 0; r < 2; r++ {
					res := DefaultRollupRes[r]
					readers.Add(1)
					go func() {
						defer readers.Done()
						for {
							select {
							case <-done:
								return
							default:
							}
							tsc, err := st.TierScan(1, res, math.MinInt64, math.MinInt64, math.MaxInt64, math.MaxInt64)
							if err != nil {
								t.Error(err)
								return
							}
							var got []RollupBucket
							tsc.Buckets(func(b *RollupBucket) { got = append(got, *b) })
							n := int(tsc.Version) - 1
							if err := sameBuckets(got, generalFold(pat.smps[:n], res)); err != nil {
								t.Errorf("%ds capture after %d samples: %v", res, n, err)
								return
							}
						}
					}()
				}
				appendPattern(t, st, pat.smps, batch)
				close(done)
				readers.Wait()
				for i, tier := range captureTiersOf(t, st, 1) {
					if err := sameBuckets(flatBuckets(&tier), generalFold(pat.smps, tier.res)); err != nil {
						t.Errorf("%ds tier: %v", DefaultRollupRes[i], err)
					}
				}
			})
		}
	}
}

// TestDenseTierFootprintBound: whatever the input, a tier holds at most
// what general buckets would, 48 bytes a bucket, plus one page of room
// (the last page's, which a batch may size past tierPageBuckets). The
// bytes counted are the pages' slots, as Stats reports them, and the page
// list itself, so a tier scattered over many small pages fails too. A
// regular hourly meter's hourly tier holds 8 bytes a bucket plus that
// page. A reopened store derives its tiers as one batch of the whole
// history would, under the same bound, and the room its last pages keep
// takes the next bucket: one append after the reopen opens no page in a
// tier whose last page has room.
func TestDenseTierFootprintBound(t *testing.T) {
	check := func(st *Store, name string, page int64) {
		t.Helper()
		ser := st.shardFor(1).series[1]
		for i, rs := range st.Stats().Rollups {
			bytes := rs.Bytes + int64(cap(ser.rollups[i].pages))*int64(unsafe.Sizeof(tierPage{}))
			if bound := int64(rs.Buckets)*rollupBucketBytes + page*rollupBucketBytes; bytes > bound {
				t.Errorf("%s: %ds tier of %d buckets holds %d bytes in %d pages, bound %d", name, rs.Res, rs.Buckets, bytes, len(ser.rollups[i].pages), bound)
			}
			if strings.HasPrefix(name, "regular hourly") && rs.Res == 3600 {
				if bound := int64(rs.Buckets)*denseBucketBytes + page*denseBucketBytes; rs.Dense != rs.Buckets || rs.Bytes > bound {
					t.Errorf("%s: regular hourly tier = %+v, want every bucket dense in at most %d bytes", name, rs, bound)
				}
			}
		}
	}
	roomy := 0 // reopened tiers whose last page has room
	for _, pat := range densePatterns() {
		for _, batch := range denseAppendModes {
			st, err := Open(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.PutMeter(testMeter(1)); err != nil {
				t.Fatal(err)
			}
			appendPattern(t, st, pat.smps, batch)
			check(st, fmt.Sprintf("%s, batch %d", pat.name, batch), int64(max(tierPageBuckets, batch, len(pat.smps)*btoi(batch == 0))))
			st.Close()
		}

		dir := t.TempDir()
		st, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutMeter(testMeter(1)); err != nil {
			t.Fatal(err)
		}
		appendPattern(t, st, pat.smps, 0)
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err = Open(Options{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		check(st, pat.name+", reopened", int64(max(tierPageBuckets, len(pat.smps))))
		ser := st.shardFor(1).series[1]
		var pages, room []int
		for i := range ser.rollups {
			tier := &ser.rollups[i]
			last := shapeOf(&tier.pages[len(tier.pages)-1])
			pages, room = append(pages, len(tier.pages)), append(room, last.cap-last.len)
		}
		if err := st.Append(1, Sample{TS: pat.smps[len(pat.smps)-1].TS + 3600, Value: 1}); err != nil {
			t.Fatal(err)
		}
		for i := range ser.rollups {
			if tier := &ser.rollups[i]; room[i] > 0 {
				roomy++
				if len(tier.pages) != pages[i] {
					t.Errorf("%s, reopened: the next hour opened page %d of the %ds tier, whose last page had room", pat.name, len(tier.pages), tier.res)
				}
			}
		}
		st.Close()
	}
	if roomy == 0 {
		t.Error("no reopened tier kept room in its last page")
	}
}

// TestLateDuplicateKeepsTierDense: an hourly meter whose one late
// duplicate lands in the last hour of a dense page keeps its hourly tier
// dense around it: that hour alone moves to a general page, and the hours
// after it go on 8 bytes each. A general page that took the tier's next
// page of room filled up with the following hours at 48 bytes each.
func TestLateDuplicateKeepsTierDense(t *testing.T) {
	const hour, t0 = int64(3600), int64(1483228800)
	var smps []Sample
	for i := 0; i < 400; i++ {
		smps = append(smps, Sample{TS: t0 + int64(i)*hour, Value: float64(i)})
		if i == 99 {
			smps = append(smps, Sample{TS: t0 + int64(i)*hour + 1800, Value: -1})
		}
	}
	for _, batch := range denseAppendModes {
		st, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutMeter(testMeter(1)); err != nil {
			t.Fatal(err)
		}
		appendPattern(t, st, smps[:101], batch)
		appendPattern(t, st, smps[101:], batch)
		rs := st.Stats().Rollups[0]
		if bound := int64(rs.Buckets)*denseBucketBytes + rollupBucketBytes + tierPageBuckets*denseBucketBytes; rs.General != 1 || rs.Bytes > bound {
			t.Errorf("batch %d: hourly tier = %+v, want one general bucket and at most %d bytes", batch, rs, bound)
		}
		checkRollupsRebuilt(t, st)
		st.Close()
	}
}

// TestTierScanAllocs: a capture spanning two pages, a batch-sized page
// and the live one behind it, allocates the TierScan and nothing more, and
// walking it allocates nothing per bucket, dense (an hourly meter's hourly
// tier) or general (a ten-minute meter's).
func TestTierScanAllocs(t *testing.T) {
	st, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pats := densePatterns()
	for id, name := range map[int64]string{1: "regular hourly", 2: "sub-hourly"} {
		if err := st.PutMeter(testMeter(id)); err != nil {
			t.Fatal(err)
		}
		for _, pat := range pats {
			if pat.name != name {
				continue
			}
			smps := pat.smps
			if _, err := st.AppendBatch(id, smps[:len(smps)-10]); err != nil {
				t.Fatal(err)
			}
			for _, smp := range smps[len(smps)-10:] {
				if err := st.Append(id, smp); err != nil {
					t.Fatal(err)
				}
			}
		}
		pages := st.shardFor(id).series[id].rollupFor(3600).pages
		if len(pages) != 2 || (pages[0].vals != nil) != (id == 1) {
			t.Fatalf("%s: hourly tier has %d pages, want 2 of the %s kind", name, len(pages), map[bool]string{true: "dense", false: "general"}[id == 1])
		}
		n := 0
		allocs := testing.AllocsPerRun(20, func() {
			tsc, err := st.TierScan(id, 3600, math.MinInt64, math.MinInt64, math.MaxInt64, math.MaxInt64)
			if err != nil {
				t.Fatal(err)
			}
			tsc.Buckets(func(b *RollupBucket) { n++ })
		})
		if allocs != 1 || n == 0 {
			t.Errorf("%s: a two-page TierScan and its walk allocate %v times over %d buckets, want 1", name, allocs, n)
		}
	}
}
