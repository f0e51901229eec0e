// Package gen synthesizes the smart-meter data set VAP is demonstrated on.
// The paper uses a proprietary real-world electricity data set; following
// its own reference [9] (the authors' synthetic residential-consumption
// generator), this package plants the exact structure the demo discovers:
//
//   - the five typical consumption patterns of Figure 3 — bimodal
//     (winter + summer peaks), energy-saving, idle, constant high, and
//     suspicious — plus the "early birds" morning-peak cohort queried in
//     demo scenario S1;
//   - a spatial layout with a commercial core and residential districts
//     whose demand peaks at different hours, producing the
//     commercial→residential evening demand shift of Figure 2/S2;
//   - configurable noise, anomalies, and missing readings so the
//     preprocessing stage has real work to do.
//
// All generation is deterministic given a seed.
package gen

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"vap/internal/exec"
	"vap/internal/geo"
	"vap/internal/store"
)

// Pattern identifies a planted typical consumption pattern.
type Pattern int

// The planted patterns. EarlyBird is the S1 query cohort; the first five
// are the Figure 3 patterns.
const (
	PatternBimodal Pattern = iota
	PatternEnergySaving
	PatternIdle
	PatternConstantHigh
	PatternSuspicious
	PatternEarlyBird
	numPatterns
)

// NumPatterns is the count of distinct planted patterns.
const NumPatterns = int(numPatterns)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case PatternBimodal:
		return "bimodal"
	case PatternEnergySaving:
		return "energy-saving"
	case PatternIdle:
		return "idle"
	case PatternConstantHigh:
		return "constant-high"
	case PatternSuspicious:
		return "suspicious"
	case PatternEarlyBird:
		return "early-bird"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// Customer is one synthetic meter with its ground truth.
type Customer struct {
	Meter   store.Meter
	Pattern Pattern
}

// Config controls the synthetic population.
type Config struct {
	Seed int64
	// Counts per pattern; zero entries use the default mix.
	Counts map[Pattern]int
	// Start of the observation window; zero means 2018-01-01 UTC.
	Start time.Time
	// Days of data at hourly cadence.
	Days int
	// Center of the synthetic city; zero value uses Copenhagen-ish
	// coordinates (the paper's case study is Danish).
	Center geo.Point
	// AnomalyRate is the fraction of samples replaced by spikes (meter
	// faults); MissingRate is the fraction of samples dropped.
	AnomalyRate float64
	MissingRate float64
}

func (c *Config) defaults() {
	if c.Counts == nil {
		c.Counts = map[Pattern]int{
			PatternBimodal:      120,
			PatternEnergySaving: 100,
			PatternIdle:         60,
			PatternConstantHigh: 80,
			PatternSuspicious:   40,
			PatternEarlyBird:    60,
		}
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.Days <= 0 {
		c.Days = 365
	}
	if c.Center == (geo.Point{}) {
		c.Center = geo.Point{Lon: 12.568, Lat: 55.676}
	}
}

// Dataset is the generated population plus its readings.
type Dataset struct {
	Customers []Customer
	// Readings[i] parallels Customers[i]; hourly cadence.
	Readings [][]store.Sample
	Start    time.Time
	Hours    int
	// Center is the synthetic city's commercial core (the generator's
	// configured center), the reference point for shift-direction checks.
	Center geo.Point
}

// Labels returns the ground-truth pattern index per customer.
func (d *Dataset) Labels() []int {
	out := make([]int, len(d.Customers))
	for i, c := range d.Customers {
		out[i] = int(c.Pattern)
	}
	return out
}

// Generate builds the full synthetic dataset.
func Generate(cfg Config) *Dataset {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	hours := cfg.Days * 24
	ds := &Dataset{Start: cfg.Start, Hours: hours, Center: cfg.Center}
	cal := newCalendar(cfg.Start, hours)
	id := int64(1)
	for p := Pattern(0); p < numPatterns; p++ {
		n := cfg.Counts[p]
		for k := 0; k < n; k++ {
			loc, zone := placeCustomer(rng, cfg.Center, p)
			cust := Customer{
				Meter: store.Meter{
					ID:       id,
					Location: loc,
					Zone:     zone,
					Labels:   map[string]string{"pattern": p.String()},
				},
				Pattern: p,
			}
			readings := synthesize(rng, cfg, cal, p, zone)
			ds.Customers = append(ds.Customers, cust)
			ds.Readings = append(ds.Readings, readings)
			id++
		}
	}
	return ds
}

// cityLayout defines the synthetic city's districts in meters offset from
// the center: a commercial core, three residential districts, and an
// industrial strip.
type district struct {
	dx, dy float64 // offset from center in meters
	sigma  float64 // scatter radius in meters
	zone   store.ZoneType
}

var districts = []district{
	{0, 0, 500, store.ZoneCommercial},         // downtown core
	{-2500, 1500, 800, store.ZoneResidential}, // NW residential
	{2600, 1800, 800, store.ZoneResidential},  // NE residential
	{500, -2800, 900, store.ZoneResidential},  // S residential
	{3500, -500, 600, store.ZoneIndustrial},   // E industrial strip
}

// placeCustomer positions a customer in a district consistent with its
// pattern: constant-high skews commercial/industrial (offices, shops, cold
// stores), the household patterns skew residential.
func placeCustomer(rng *rand.Rand, center geo.Point, p Pattern) (geo.Point, store.ZoneType) {
	var d district
	switch p {
	case PatternConstantHigh:
		// 70% commercial core, 30% industrial.
		if rng.Float64() < 0.7 {
			d = districts[0]
		} else {
			d = districts[4]
		}
	case PatternIdle:
		// Vacant units appear everywhere; slight residential skew.
		d = districts[1+rng.Intn(3)]
	default:
		// Household patterns live in the residential districts.
		d = districts[1+rng.Intn(3)]
	}
	dx := d.dx + rng.NormFloat64()*d.sigma
	dy := d.dy + rng.NormFloat64()*d.sigma
	lon := center.Lon + dx/geo.MetersPerDegreeLon(center.Lat)
	lat := center.Lat + dy/geo.MetersPerDegreeLat
	return geo.Point{Lon: lon, Lat: lat}, d.zone
}

// calendar is what the generator reads of the clock over one observation
// window, worked out once per Generate: every sample shares the start's
// minute, the first one sits hour0 hours into its UTC day, and days[k]
// holds the terms of the k-th UTC day the window touches.
type calendar struct {
	start  int64
	hour0  int
	minute int
	days   []dayTerms
}

// dayTerms are the terms of one UTC day.
type dayTerms struct {
	weekend       bool
	bimodal, mild float64 // seasonBimodal and seasonMild of the day
}

func newCalendar(start time.Time, hours int) *calendar {
	t := start.UTC()
	c := &calendar{start: t.Unix(), hour0: t.Hour(), minute: t.Minute()}
	c.days = make([]dayTerms, (c.hour0+hours+23)/24)
	for k := range c.days {
		day := t.AddDate(0, 0, k)
		c.days[k] = dayTerms{
			weekend: day.Weekday() == time.Saturday || day.Weekday() == time.Sunday,
			bimodal: seasonBimodal(day.YearDay()),
			mild:    seasonMild(day.YearDay()),
		}
	}
	return c
}

// hourTerms are one customer's hour-of-day terms, indexed by the UTC hour
// of the sample.
type hourTerms struct {
	residential, earlyBird, commercial [24]float64
	idle, constant                     [24]float64 // the per-customer ripples
}

func newHourTerms(minute int, phase float64) *hourTerms {
	ht := new(hourTerms)
	for h := range ht.residential {
		hour := float64(h) + float64(minute)/60 // the clock as the shapes read it
		ht.residential[h] = diurnalResidential(hour)
		ht.earlyBird[h] = diurnalEarlyBird(hour)
		// Business-hours modulation, on the whole hour: ~±12% around the
		// pattern level, peaking mid-day. Kept gentle so constant-high stays
		// "constant" to the eye while still moving the city's demand
		// centroid.
		ht.commercial[h] = 0.88 + 0.24*diurnalCommercial(float64(h))
		// Faint fridge cycling on the idle standby load.
		ht.idle[h] = 1 + 0.3*math.Sin(2*math.Pi*hour/3+phase)
		// Constant-high's tiny diurnal ripple.
		ht.constant[h] = 1 + 0.05*math.Sin(2*math.Pi*hour/24+phase)
	}
	return ht
}

// synthesize produces the hourly series for one customer of pattern p in
// the given zone. Commercial/industrial customers carry a mild
// business-hours modulation on top of their pattern so the city's demand
// center of mass moves from the core at midday to the residential
// districts in the evening — the planted Figure 2 shift.
func synthesize(rng *rand.Rand, cfg Config, cal *calendar, p Pattern, zone store.ZoneType) []store.Sample {
	hours := cfg.Days * 24
	out := make([]store.Sample, 0, hours)
	// Per-customer idiosyncrasy so customers of one pattern are similar but
	// not identical.
	scale := 0.8 + 0.4*rng.Float64()
	phase := rng.Float64() * 2 * math.Pi
	ht := newHourTerms(cal.minute, phase)
	modulated := zone == store.ZoneCommercial || zone == store.ZoneIndustrial
	for h := 0; h < hours; h++ {
		k := cal.hour0 + h
		hod := k % 24
		v := baseValue(rng, p, ht, hod, cal.days[k/24], scale)
		if modulated {
			v *= ht.commercial[hod]
		}
		// Multiplicative noise.
		v *= 1 + 0.08*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		// Injected meter faults.
		if cfg.AnomalyRate > 0 && rng.Float64() < cfg.AnomalyRate {
			v = v*10 + 20 // implausible spike
		}
		if cfg.MissingRate > 0 && rng.Float64() < cfg.MissingRate {
			continue // dropped reading
		}
		out = append(out, store.Sample{TS: cal.start + int64(h)*3600, Value: v})
	}
	return out
}

// dayOfYearFrac returns the position of the 1-based day of the year yday
// within the year in [0, 1).
func dayOfYearFrac(yday int) float64 {
	return float64(yday-1) / 365.0
}

// seasonBimodal peaks in winter (heating) and summer (cooling): a
// double-humped annual shape, maximal near January and July.
func seasonBimodal(yday int) float64 {
	y := dayOfYearFrac(yday)
	return 0.6 + 0.4*math.Cos(4*math.Pi*y) // period = half year
}

// seasonMild is a gentle single winter peak (lighting/heating).
func seasonMild(yday int) float64 {
	y := dayOfYearFrac(yday)
	return 0.85 + 0.15*math.Cos(2*math.Pi*y)
}

// diurnal shapes, hour in local time [0, 24).
func diurnalResidential(hour float64) float64 {
	// Morning shoulder + strong evening peak (18-21).
	morning := 0.5 * gauss(hour, 7.5, 1.5)
	evening := 1.0 * gauss(hour, 19.5, 2.0)
	return 0.25 + morning + evening
}

func diurnalEarlyBird(hour float64) float64 {
	// The S1 query cohort: sharp 5:00-7:00 peak, modest evening.
	morning := 1.2 * gauss(hour, 6.0, 0.8)
	evening := 0.35 * gauss(hour, 19.0, 2.0)
	return 0.2 + morning + evening
}

func diurnalCommercial(hour float64) float64 {
	// Business hours plateau 8-17.
	v := 0.2
	if hour >= 7 && hour <= 18 {
		v = 1.0 - 0.25*math.Abs(hour-12.5)/5.5
	}
	return v
}

func gauss(x, mu, sigma float64) float64 {
	d := (x - mu) / sigma
	return math.Exp(-0.5 * d * d)
}

// baseValue composes the seasonal, weekly, and diurnal structure of each
// pattern into an hourly kWh value, for a sample hod hours into UTC day d.
func baseValue(rng *rand.Rand, p Pattern, ht *hourTerms, hod int, d dayTerms, scale float64) float64 {
	switch p {
	case PatternBimodal:
		base := 1.6 * scale * d.bimodal * ht.residential[hod]
		if d.weekend {
			base *= 1.15 // home more on weekends
		}
		return base
	case PatternEnergySaving:
		base := 0.45 * scale * d.mild * ht.residential[hod]
		if d.weekend {
			base *= 1.1
		}
		return base
	case PatternIdle:
		// Near-zero standby load with faint fridge cycling.
		return 0.05 * scale * ht.idle[hod]
	case PatternConstantHigh:
		// Flat high draw around the clock (cold stores, server rooms,
		// 24h shops); tiny diurnal ripple.
		return 3.2 * scale * ht.constant[hod]
	case PatternSuspicious:
		// Irregular: low baseline with heavy night-time bursts on random
		// days — the profile utilities flag for inspection.
		base := 0.3 * scale * ht.residential[hod]
		if (hod >= 23 || hod < 4) && rng.Float64() < 0.35 {
			base += 2.5 + 2*rng.Float64()
		}
		return base
	case PatternEarlyBird:
		base := 1.3 * scale * d.mild * ht.earlyBird[hod]
		if d.weekend {
			base *= 0.9 // early risers sleep in a little
		}
		return base
	default:
		return scale
	}
}

// LoadInto registers all customers in st, in order, then appends each
// meter's readings by one AppendBatch, the meters fanned out over
// GOMAXPROCS workers: they are independent and the store is sharded, so the
// store ends exactly as a serial load leaves it.
func (d *Dataset) LoadInto(st *store.Store) error {
	for _, c := range d.Customers {
		if err := st.PutMeter(c.Meter); err != nil {
			return err
		}
	}
	return exec.ForEach(context.Background(), len(d.Customers), runtime.GOMAXPROCS(0), func(i int) error {
		_, err := st.AppendBatch(d.Customers[i].Meter.ID, d.Readings[i])
		return err
	})
}

// Withhold returns a shallow copy of d without the readings of the
// window's last days days (though always with those of its first hour):
// what vapd -stream loads before it replays the rest live from d, which
// keeps every reading.
func (d *Dataset) Withhold(days int) *Dataset {
	cutoff := d.Start.Unix() + int64(max(d.Hours-days*24, 1))*3600
	out := *d
	out.Readings = make([][]store.Sample, len(d.Readings))
	for i, r := range d.Readings {
		out.Readings[i] = r[:sort.Search(len(r), func(j int) bool { return r[j].TS >= cutoff })]
	}
	return &out
}
