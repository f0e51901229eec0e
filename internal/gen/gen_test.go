package gen

import (
	"math"
	"testing"
	"time"

	"vap/internal/store"
)

func smallConfig(days int) Config {
	return Config{
		Seed: 7,
		Days: days,
		Counts: map[Pattern]int{
			PatternBimodal:      10,
			PatternEnergySaving: 10,
			PatternIdle:         10,
			PatternConstantHigh: 10,
			PatternSuspicious:   10,
			PatternEarlyBird:    10,
		},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig(7))
	b := Generate(smallConfig(7))
	if len(a.Customers) != len(b.Customers) {
		t.Fatal("nondeterministic customer count")
	}
	for i := range a.Customers {
		if a.Customers[i].Meter.Location != b.Customers[i].Meter.Location {
			t.Fatalf("nondeterministic location at %d", i)
		}
		if len(a.Readings[i]) != len(b.Readings[i]) {
			t.Fatalf("nondeterministic reading count at %d", i)
		}
		for j := range a.Readings[i] {
			if a.Readings[i][j] != b.Readings[i][j] {
				t.Fatalf("nondeterministic reading at %d/%d", i, j)
			}
		}
	}
}

func TestGenerateShape(t *testing.T) {
	ds := Generate(smallConfig(7))
	if len(ds.Customers) != 60 {
		t.Fatalf("customers = %d", len(ds.Customers))
	}
	if ds.Hours != 7*24 {
		t.Fatalf("hours = %d", ds.Hours)
	}
	for i, r := range ds.Readings {
		if len(r) != ds.Hours {
			t.Fatalf("customer %d has %d readings, want %d", i, len(r), ds.Hours)
		}
		// Hourly cadence, strictly increasing, non-negative values.
		for j := 1; j < len(r); j++ {
			if r[j].TS-r[j-1].TS != 3600 {
				t.Fatalf("customer %d cadence broken at %d", i, j)
			}
		}
		for j, s := range r {
			if s.Value < 0 || math.IsNaN(s.Value) {
				t.Fatalf("customer %d reading %d = %v", i, j, s.Value)
			}
		}
	}
}

func TestGenerateUniqueIDsAndValidLocations(t *testing.T) {
	ds := Generate(smallConfig(3))
	seen := map[int64]bool{}
	for _, c := range ds.Customers {
		if seen[c.Meter.ID] {
			t.Fatalf("duplicate meter id %d", c.Meter.ID)
		}
		seen[c.Meter.ID] = true
		if !c.Meter.Location.Valid() {
			t.Fatalf("invalid location %v", c.Meter.Location)
		}
	}
}

func TestGenerateMissingRate(t *testing.T) {
	cfg := smallConfig(10)
	cfg.MissingRate = 0.1
	ds := Generate(cfg)
	total, expected := 0, 0
	for _, r := range ds.Readings {
		total += len(r)
		expected += ds.Hours
	}
	frac := 1 - float64(total)/float64(expected)
	if frac < 0.05 || frac > 0.15 {
		t.Errorf("missing fraction = %.3f, want ~0.1", frac)
	}
}

func TestGenerateAnomalyRate(t *testing.T) {
	cfg := smallConfig(10)
	cfg.AnomalyRate = 0.05
	ds := Generate(cfg)
	spikes := 0
	total := 0
	for _, r := range ds.Readings {
		for _, s := range r {
			total++
			if s.Value > 20 {
				spikes++
			}
		}
	}
	frac := float64(spikes) / float64(total)
	if frac < 0.02 {
		t.Errorf("anomaly fraction = %.4f, want >= 0.02", frac)
	}
}

func TestPatternLevels(t *testing.T) {
	ds := Generate(smallConfig(14))
	means := map[Pattern]float64{}
	counts := map[Pattern]int{}
	for i, c := range ds.Customers {
		s := 0.0
		for _, r := range ds.Readings[i] {
			s += r.Value
		}
		means[c.Pattern] += s / float64(len(ds.Readings[i]))
		counts[c.Pattern]++
	}
	for p := range means {
		means[p] /= float64(counts[p])
	}
	if means[PatternIdle] >= 0.15 {
		t.Errorf("idle mean = %v, want < 0.15", means[PatternIdle])
	}
	if means[PatternConstantHigh] <= 2 {
		t.Errorf("constant-high mean = %v, want > 2", means[PatternConstantHigh])
	}
	if means[PatternEnergySaving] >= means[PatternBimodal] {
		t.Errorf("energy-saving (%v) should consume less than bimodal (%v)",
			means[PatternEnergySaving], means[PatternBimodal])
	}
}

func TestEarlyBirdPeakHour(t *testing.T) {
	ds := Generate(smallConfig(28))
	for i, c := range ds.Customers {
		if c.Pattern != PatternEarlyBird {
			continue
		}
		prof := DailyProfile(ds.Readings[i])
		peak := 0
		for h, v := range prof {
			if v > prof[peak] {
				peak = h
			}
		}
		if peak < 5 || peak > 7 {
			t.Errorf("early bird %d peaks at %02d:00, want 05-07", c.Meter.ID, peak)
		}
	}
}

func TestBimodalSeasonality(t *testing.T) {
	cfg := smallConfig(365)
	cfg.Counts = map[Pattern]int{PatternBimodal: 5}
	ds := Generate(cfg)
	for i := range ds.Customers {
		mp := MonthlyProfile(ds.Readings[i])
		jan, apr, jul, oct := mp[0], mp[3], mp[6], mp[9]
		if jan <= apr || jul <= apr {
			t.Errorf("customer %d: winter %v / summer %v not above spring %v",
				i, jan, jul, apr)
		}
		if jan <= oct || jul <= oct {
			t.Errorf("customer %d: winter %v / summer %v not above autumn %v",
				i, jan, jul, oct)
		}
	}
}

func TestConstantHighIsFlat(t *testing.T) {
	cfg := smallConfig(30)
	cfg.Counts = map[Pattern]int{PatternConstantHigh: 5}
	ds := Generate(cfg)
	for i := range ds.Customers {
		prof := DailyProfile(ds.Readings[i])
		lo, hi := prof[0], prof[0]
		for _, v := range prof {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if (hi-lo)/hi > 0.3 {
			t.Errorf("constant-high customer %d varies %.0f%% over the day", i, 100*(hi-lo)/hi)
		}
	}
}

func TestZonePlacement(t *testing.T) {
	ds := Generate(smallConfig(2))
	zones := map[store.ZoneType]int{}
	for _, c := range ds.Customers {
		zones[c.Meter.Zone]++
		// Constant-high must be commercial or industrial.
		if c.Pattern == PatternConstantHigh &&
			c.Meter.Zone != store.ZoneCommercial && c.Meter.Zone != store.ZoneIndustrial {
			t.Errorf("constant-high customer in zone %s", c.Meter.Zone)
		}
		// Household patterns are residential.
		if c.Pattern == PatternBimodal && c.Meter.Zone != store.ZoneResidential {
			t.Errorf("bimodal customer in zone %s", c.Meter.Zone)
		}
	}
	if zones[store.ZoneResidential] == 0 || zones[store.ZoneCommercial] == 0 {
		t.Errorf("zones not populated: %v", zones)
	}
}

func TestCommercialResidentialDiurnalShift(t *testing.T) {
	// The planted S2 structure: commercial demand share is higher at 13:00
	// than at 20:00; residential the other way around.
	ds := Generate(smallConfig(14))
	var com13, com20, res13, res20 float64
	for i, c := range ds.Customers {
		prof := DailyProfile(ds.Readings[i])
		switch c.Meter.Zone {
		case store.ZoneCommercial:
			com13 += prof[13]
			com20 += prof[20]
		case store.ZoneResidential:
			res13 += prof[13]
			res20 += prof[20]
		}
	}
	if com13 <= com20 {
		t.Errorf("commercial 13h (%v) should exceed 20h (%v)", com13, com20)
	}
	if res20 <= res13 {
		t.Errorf("residential 20h (%v) should exceed 13h (%v)", res20, res13)
	}
}

func TestLoadInto(t *testing.T) {
	ds := Generate(smallConfig(2))
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := ds.LoadInto(st); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Meters != 60 || stats.Samples != 60*48 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestLabelsAndCustomerByID(t *testing.T) {
	ds := Generate(smallConfig(1))
	labels := ds.Labels()
	if len(labels) != len(ds.Customers) {
		t.Fatal("labels length mismatch")
	}
}

func TestDefaultsApplied(t *testing.T) {
	ds := Generate(Config{Seed: 1, Days: 1})
	if len(ds.Customers) != 460 { // default mix total
		t.Errorf("default population = %d, want 460", len(ds.Customers))
	}
	if ds.Start != time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC) {
		t.Errorf("default start = %v", ds.Start)
	}
}

func TestPatternString(t *testing.T) {
	names := map[Pattern]string{
		PatternBimodal:      "bimodal",
		PatternEnergySaving: "energy-saving",
		PatternIdle:         "idle",
		PatternConstantHigh: "constant-high",
		PatternSuspicious:   "suspicious",
		PatternEarlyBird:    "early-bird",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
	if Pattern(99).String() == "" {
		t.Error("unknown pattern should still stringify")
	}
}

// DailyProfile returns the mean value per hour-of-day (24 values) of a
// sample slice — the canonical "typical pattern" representation View B
// draws.
func DailyProfile(samples []store.Sample) [24]float64 {
	var sums, counts [24]float64
	for _, s := range samples {
		h := time.Unix(s.TS, 0).UTC().Hour()
		sums[h] += s.Value
		counts[h]++
	}
	var out [24]float64
	for i := range sums {
		if counts[i] > 0 {
			out[i] = sums[i] / counts[i]
		}
	}
	return out
}

// MonthlyProfile returns the mean value per month (12 values).
func MonthlyProfile(samples []store.Sample) [12]float64 {
	var sums, counts [12]float64
	for _, s := range samples {
		m := int(time.Unix(s.TS, 0).UTC().Month()) - 1
		sums[m] += s.Value
		counts[m]++
	}
	var out [12]float64
	for i := range sums {
		if counts[i] > 0 {
			out[i] = sums[i] / counts[i]
		}
	}
	return out
}
