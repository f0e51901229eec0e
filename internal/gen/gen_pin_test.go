package gen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"time"
)

// datasetHash is an FNV-1a hash of every bit Generate decides: each
// customer's id, pattern, location and zone, then every sample's timestamp
// and value bits, in order.
func datasetHash(ds *Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i, c := range ds.Customers {
		put(uint64(c.Meter.ID))
		put(uint64(c.Pattern))
		put(math.Float64bits(c.Meter.Location.Lon))
		put(math.Float64bits(c.Meter.Location.Lat))
		h.Write([]byte(c.Meter.Zone))
		put(uint64(len(ds.Readings[i])))
		for _, s := range ds.Readings[i] {
			put(uint64(s.TS))
			put(math.Float64bits(s.Value))
		}
	}
	return h.Sum64()
}

// pinnedConfigs are the generator configurations whose output is pinned
// bit for bit. They cover the default year, a second seed, a start off the
// whole hour with faults and gaps planted, and a start before the Unix
// epoch that crosses into 1970.
var pinnedConfigs = []struct {
	name string
	cfg  Config
	want uint64
}{
	{"seed1-365d", Config{Seed: 1, Days: 365}, 0x377455d614c1ad7a},
	{"seed42-30d", Config{Seed: 42, Days: 30}, 0x5a708a34afc3abd8},
	{"offhour-faults", Config{Seed: 3, Days: 45,
		Start:       time.Date(2019, 3, 30, 22, 17, 0, 0, time.UTC),
		AnomalyRate: 0.01, MissingRate: 0.02}, 0xcfe633569564075c},
	{"pre-epoch", Config{Seed: 5, Days: 20,
		Start: time.Date(1969, 12, 20, 5, 41, 0, 0, time.UTC)}, 0x17075e46ddc1abee},
}

// TestGenerateBitsPinned holds Generate's output to hashes recorded from
// the generator that built a time.Time for every sample, so the calendar
// and hour-of-day tables cannot move one bit of any sample. The hashes are
// amd64's (with FMA, which math.Exp uses when the CPU has it): other
// platforms round the last bit of Exp, Sin and Cos, or fuse the
// generator's multiply-adds, their own way.
func TestGenerateBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned hashes are amd64's")
	}
	for _, pc := range pinnedConfigs {
		if got := datasetHash(Generate(pc.cfg)); got != pc.want {
			t.Errorf("%s: dataset hash %#016x, want %#016x", pc.name, got, pc.want)
		}
	}
}

// BenchmarkGenerate is the in-process twin of the end-to-end benchmark's
// gen.generate_s: the default 460 meters over 365 days.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(Config{Seed: 1, Days: 365})
	}
}
