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
	"fmt"
	"math"
	"math/rand"
	"time"

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
			readings := synthesize(rng, cfg, p, zone)
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

// synthesize produces the hourly series for one customer of pattern p in
// the given zone. Commercial/industrial customers carry a mild
// business-hours modulation on top of their pattern so the city's demand
// center of mass moves from the core at midday to the residential
// districts in the evening — the planted Figure 2 shift.
func synthesize(rng *rand.Rand, cfg Config, p Pattern, zone store.ZoneType) []store.Sample {
	hours := cfg.Days * 24
	out := make([]store.Sample, 0, hours)
	// Per-customer idiosyncrasy so customers of one pattern are similar but
	// not identical.
	scale := 0.8 + 0.4*rng.Float64()
	phase := rng.Float64() * 2 * math.Pi
	start := cfg.Start.Unix()
	for h := 0; h < hours; h++ {
		ts := start + int64(h)*3600
		t := time.Unix(ts, 0).UTC()
		v := baseValue(rng, p, t, scale, phase)
		if zone == store.ZoneCommercial || zone == store.ZoneIndustrial {
			// Business-hours modulation: ~±12% around the pattern level,
			// peaking mid-day. Kept gentle so constant-high stays "constant"
			// to the eye while still moving the city's demand centroid.
			hour := float64(t.Hour())
			v *= 0.88 + 0.24*diurnalCommercial(hour)
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
		out = append(out, store.Sample{TS: ts, Value: v})
	}
	return out
}

// dayOfYearFrac returns the position of t within the year in [0, 1).
func dayOfYearFrac(t time.Time) float64 {
	return float64(t.YearDay()-1) / 365.0
}

// seasonBimodal peaks in winter (heating) and summer (cooling): a
// double-humped annual shape, maximal near January and July.
func seasonBimodal(t time.Time) float64 {
	y := dayOfYearFrac(t)
	return 0.6 + 0.4*math.Cos(4*math.Pi*y) // period = half year
}

// seasonMild is a gentle single winter peak (lighting/heating).
func seasonMild(t time.Time) float64 {
	y := dayOfYearFrac(t)
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
// pattern into an hourly kWh value.
func baseValue(rng *rand.Rand, p Pattern, t time.Time, scale, phase float64) float64 {
	hour := float64(t.Hour()) + float64(t.Minute())/60
	weekend := t.Weekday() == time.Saturday || t.Weekday() == time.Sunday
	switch p {
	case PatternBimodal:
		base := 1.6 * scale * seasonBimodal(t) * diurnalResidential(hour)
		if weekend {
			base *= 1.15 // home more on weekends
		}
		return base
	case PatternEnergySaving:
		base := 0.45 * scale * seasonMild(t) * diurnalResidential(hour)
		if weekend {
			base *= 1.1
		}
		return base
	case PatternIdle:
		// Near-zero standby load with faint fridge cycling.
		return 0.05 * scale * (1 + 0.3*math.Sin(2*math.Pi*hour/3+phase))
	case PatternConstantHigh:
		// Flat high draw around the clock (cold stores, server rooms,
		// 24h shops); tiny diurnal ripple.
		return 3.2 * scale * (1 + 0.05*math.Sin(2*math.Pi*hour/24+phase))
	case PatternSuspicious:
		// Irregular: low baseline with heavy night-time bursts on random
		// days — the profile utilities flag for inspection.
		base := 0.3 * scale * diurnalResidential(hour)
		if (hour >= 23 || hour < 4) && rng.Float64() < 0.35 {
			base += 2.5 + 2*rng.Float64()
		}
		return base
	case PatternEarlyBird:
		base := 1.3 * scale * seasonMild(t) * diurnalEarlyBird(hour)
		if weekend {
			base *= 0.9 // early risers sleep in a little
		}
		return base
	default:
		return scale
	}
}

// LoadInto registers all customers in st and appends all readings.
func (d *Dataset) LoadInto(st *store.Store) error {
	for i, c := range d.Customers {
		if err := st.PutMeter(c.Meter); err != nil {
			return err
		}
		if _, err := st.AppendBatch(c.Meter.ID, d.Readings[i]); err != nil {
			return err
		}
	}
	return nil
}
