package flow

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vap/internal/geo"
	"vap/internal/kde"
)

func box() geo.BBox {
	return geo.NewBBox(geo.Point{Lon: 12.4, Lat: 55.5}, geo.Point{Lon: 12.8, Lat: 55.9})
}

// densityAt builds a KDE field from one point mass.
func densityAt(t *testing.T, p geo.Point, w float64) *kde.Field {
	t.Helper()
	f, err := kde.EstimateCtx(context.Background(), []kde.WeightedPoint{{Loc: p, Weight: w}}, box(),
		kde.Config{Cols: 64, Rows: 64, Bandwidth: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestShiftIsDifference(t *testing.T) {
	west := geo.Point{Lon: 12.5, Lat: 55.7}
	east := geo.Point{Lon: 12.7, Lat: 55.7}
	f1 := densityAt(t, west, 1)
	f2 := densityAt(t, east, 1)
	shift, err := Shift(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	// Demand moved west -> east: negative at west, positive at east.
	cellOf := func(p geo.Point) (col, row int) {
		w, h := shift.CellSize()
		return int((p.Lon - shift.Box.Min.Lon) / w), int((p.Lat - shift.Box.Min.Lat) / h)
	}
	wc, wr := cellOf(west)
	ec, er := cellOf(east)
	if shift.At(wc, wr) >= 0 {
		t.Errorf("west cell shift = %v, want negative", shift.At(wc, wr))
	}
	if shift.At(ec, er) <= 0 {
		t.Errorf("east cell shift = %v, want positive", shift.At(ec, er))
	}
	if _, err := Shift(nil, f2); err == nil {
		t.Error("nil input should fail")
	}
}

func TestGradientFieldPointsTowardGain(t *testing.T) {
	west := geo.Point{Lon: 12.5, Lat: 55.7}
	east := geo.Point{Lon: 12.7, Lat: 55.7}
	shift, _ := Shift(densityAt(t, west, 1), densityAt(t, east, 1))
	vectors := GradientField(shift, 4, 0.2)
	if len(vectors) == 0 {
		t.Fatal("no gradient vectors")
	}
	// In the corridor between the two centers, arrows must point east.
	eastward := 0
	total := 0
	for _, v := range vectors {
		if v.From.Lat > 55.65 && v.From.Lat < 55.75 &&
			v.From.Lon > 12.52 && v.From.Lon < 12.68 {
			total++
			if v.To.Lon > v.From.Lon {
				eastward++
			}
		}
		if v.Rate < 0 || v.Rate > 1 {
			t.Fatalf("rate out of range: %v", v.Rate)
		}
	}
	if total == 0 {
		t.Fatal("no corridor vectors sampled")
	}
	if float64(eastward)/float64(total) < 0.9 {
		t.Errorf("only %d/%d corridor arrows point east", eastward, total)
	}
}

func TestGradientFieldFlatIsEmpty(t *testing.T) {
	flat := &kde.Field{Box: box(), Cols: 16, Rows: 16, Values: make([]float64, 256)}
	if v := GradientField(flat, 4, 0.1); v != nil {
		t.Errorf("flat field produced %d vectors", len(v))
	}
	if v := GradientField(nil, 4, 0.1); v != nil {
		t.Error("nil field should produce nil")
	}
}

func TestExtractODMovesMassOutward(t *testing.T) {
	west := geo.Point{Lon: 12.5, Lat: 55.7}
	east := geo.Point{Lon: 12.7, Lat: 55.7}
	shift, _ := Shift(densityAt(t, west, 1), densityAt(t, east, 1))
	flows := ExtractOD(shift, ODConfig{})
	if len(flows) == 0 {
		t.Fatal("no OD flows")
	}
	// The strongest flow must run roughly west -> east.
	f0 := flows[0]
	if f0.To.Lon <= f0.From.Lon {
		t.Errorf("strongest flow runs %v -> %v, want west->east", f0.From, f0.To)
	}
	if f0.Rate != 1 {
		t.Errorf("strongest flow rate = %v, want 1", f0.Rate)
	}
	// From-points cluster near the west source.
	for _, f := range flows {
		if f.Mass <= 0 {
			t.Fatalf("non-positive mass %v", f.Mass)
		}
		if f.Rate < 0 || f.Rate > 1 {
			t.Fatalf("rate out of range: %v", f.Rate)
		}
	}
}

func TestExtractODOneSigned(t *testing.T) {
	// All-positive field: no sources, no flows.
	f := &kde.Field{Box: box(), Cols: 8, Rows: 8, Values: make([]float64, 64)}
	for i := range f.Values {
		f.Values[i] = 1
	}
	if flows := ExtractOD(f, ODConfig{}); flows != nil {
		t.Errorf("one-signed field produced %d flows", len(flows))
	}
}

func TestExtractODRespectsCaps(t *testing.T) {
	west := geo.Point{Lon: 12.5, Lat: 55.7}
	east := geo.Point{Lon: 12.7, Lat: 55.7}
	shift, _ := Shift(densityAt(t, west, 1), densityAt(t, east, 1))
	flows := ExtractOD(shift, ODConfig{})
	if len(flows) == 0 || len(flows) >= 2*odTopK {
		t.Errorf("flows = %d, want 1..%d", len(flows), 2*odTopK-1)
	}
	from, to := map[geo.Point]bool{}, map[geo.Point]bool{}
	for _, v := range flows {
		from[v.From], to[v.To] = true, true
		if v.Rate < odMinMassFrac || v.Rate > 1 {
			t.Errorf("flow rate %v outside [%v, 1]", v.Rate, odMinMassFrac)
		}
	}
	if len(from) > odTopK || len(to) > odTopK {
		t.Errorf("%d sources and %d sinks, cap %d each", len(from), len(to), odTopK)
	}
}

func TestSummarize(t *testing.T) {
	west := geo.Point{Lon: 12.5, Lat: 55.7}
	east := geo.Point{Lon: 12.7, Lat: 55.7}
	shift, _ := Shift(densityAt(t, west, 1), densityAt(t, east, 1))
	s := Summarize(shift)
	if s.L1 <= 0 || s.MaxGain <= 0 || s.MaxLoss <= 0 {
		t.Fatalf("summary = %+v", s)
	}
	// Loss centroid near west, gain centroid near east.
	if s.LossCenter.DistanceTo(west) > 3000 {
		t.Errorf("loss centroid %v too far from west source", s.LossCenter)
	}
	if s.GainCenter.DistanceTo(east) > 3000 {
		t.Errorf("gain centroid %v too far from east sink", s.GainCenter)
	}
	// Bearing west->east is ~90 degrees.
	if math.Abs(s.ShiftBearing-90) > 15 {
		t.Errorf("bearing = %v, want ~90", s.ShiftBearing)
	}
	if s.ShiftMeters < 5000 || s.ShiftMeters > 20000 {
		t.Errorf("shift distance = %v m", s.ShiftMeters)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.L1 != 0 || s.ShiftMeters != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeSymmetricSwap(t *testing.T) {
	// Swapping t1 and t2 must swap gain and loss centroids.
	a := densityAt(t, geo.Point{Lon: 12.5, Lat: 55.7}, 1)
	b := densityAt(t, geo.Point{Lon: 12.7, Lat: 55.7}, 1)
	s1, _ := Shift(a, b)
	s2, _ := Shift(b, a)
	sum1 := Summarize(s1)
	sum2 := Summarize(s2)
	if sum1.GainCenter.DistanceTo(sum2.LossCenter) > 1 {
		t.Errorf("gain/loss swap violated: %v vs %v", sum1.GainCenter, sum2.LossCenter)
	}
	if math.Abs(sum1.L1-sum2.L1) > 1e-12 {
		t.Errorf("L1 not symmetric: %v vs %v", sum1.L1, sum2.L1)
	}
}

// topCellsRef is the selection ExtractOD used to make, with the tie order
// pinned: every signed cell, stably sorted by descending mass from
// row-major order, cut to k.
func topCellsRef(shift *kde.Field, k int) (sources, sinks []cellMass) {
	for r := 0; r < shift.Rows; r++ {
		for c := 0; c < shift.Cols; c++ {
			switch v := shift.At(c, r); {
			case v < 0:
				sources = append(sources, cellMass{c, r, -v})
			case v > 0:
				sinks = append(sinks, cellMass{c, r, v})
			}
		}
	}
	for _, s := range []*[]cellMass{&sources, &sinks} {
		sort.SliceStable(*s, func(i, j int) bool { return (*s)[i].mass > (*s)[j].mass })
		if len(*s) > k {
			*s = (*s)[:k]
		}
	}
	return sources, sinks
}

func TestTopCellsMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		cols, rows := 1+rng.Intn(24), 1+rng.Intn(24)
		f := &kde.Field{Box: box(), Cols: cols, Rows: rows, Values: make([]float64, cols*rows)}
		// Few distinct magnitudes plant exact ties, within the top k and
		// across its cut; zeros and a sparse fill leave fewer than k cells
		// of a sign.
		levels := 1 + rng.Intn(6)
		fill := rng.Float64()
		for i := range f.Values {
			if rng.Float64() < fill {
				f.Values[i] = float64(rng.Intn(2*levels+1) - levels)
			}
			if trial%3 == 0 { // every third field has no ties at all
				f.Values[i] += rng.NormFloat64()
			}
		}
		k := 1 + rng.Intn(40)
		gotSrc, gotSink := topCells(f, k)
		wantSrc, wantSink := topCellsRef(f, k)
		if !reflect.DeepEqual(gotSrc, wantSrc) || !reflect.DeepEqual(gotSink, wantSink) {
			t.Fatalf("trial %d (%dx%d, k=%d):\n sources %v\n want    %v\n sinks   %v\n want    %v",
				trial, cols, rows, k, gotSrc, wantSrc, gotSink, wantSink)
		}
	}
}
