package kde

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"vap/internal/geo"
)

func box() geo.BBox {
	return geo.NewBBox(geo.Point{Lon: 12.4, Lat: 55.5}, geo.Point{Lon: 12.8, Lat: 55.9})
}

func TestEstimatePeakAtPointMass(t *testing.T) {
	pts := []WeightedPoint{{Loc: geo.Point{Lon: 12.6, Lat: 55.7}, Weight: 1}}
	f, err := EstimateCtx(context.Background(), pts, box(), Config{Cols: 64, Rows: 64, Bandwidth: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	// The densest cell must be the one containing the point.
	bestIdx := 0
	for i, v := range f.Values {
		if v > f.Values[bestIdx] {
			bestIdx = i
		}
	}
	c, r := f.CellOf(geo.Point{Lon: 12.6, Lat: 55.7})
	if bestIdx != r*f.Cols+c {
		t.Errorf("peak at %d, want cell (%d,%d)=%d", bestIdx, c, r, r*f.Cols+c)
	}
}

func TestEstimateMassConservation(t *testing.T) {
	// Integral of a Gaussian KDE over a sufficiently large box equals the
	// mean weight (Eq. 3 has 1/n and sum c_i).
	rng := rand.New(rand.NewSource(1))
	var pts []WeightedPoint
	for i := 0; i < 50; i++ {
		pts = append(pts, WeightedPoint{
			Loc:    geo.Point{Lon: 12.6 + rng.NormFloat64()*0.01, Lat: 55.7 + rng.NormFloat64()*0.01},
			Weight: 1,
		})
	}
	f, err := EstimateCtx(context.Background(), pts, box(), Config{Cols: 128, Rows: 128, Bandwidth: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Integral(); math.Abs(got-1) > 0.05 {
		t.Errorf("integral = %v, want ~1 (mean unit weight)", got)
	}
}

func TestEstimateWeightsScaleDensity(t *testing.T) {
	p := geo.Point{Lon: 12.6, Lat: 55.7}
	f1, _ := EstimateCtx(context.Background(), []WeightedPoint{{Loc: p, Weight: 1}}, box(), Config{Bandwidth: 0.02})
	f2, _ := EstimateCtx(context.Background(), []WeightedPoint{{Loc: p, Weight: 2}}, box(), Config{Bandwidth: 0.02})
	_, hi1 := f1.MinMax()
	_, hi2 := f2.MinMax()
	if math.Abs(hi2-2*hi1) > 1e-9*hi1 {
		t.Errorf("doubling weight: peak %v -> %v, want exactly 2x", hi1, hi2)
	}
}

func TestEstimateZeroWeightIgnored(t *testing.T) {
	p := geo.Point{Lon: 12.6, Lat: 55.7}
	f, err := EstimateCtx(context.Background(), []WeightedPoint{{Loc: p, Weight: 0}}, box(), Config{Bandwidth: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if _, hi := f.MinMax(); hi != 0 {
		t.Errorf("zero-weight point produced density %v", hi)
	}
}

func TestEstimateErrors(t *testing.T) {
	if _, err := EstimateCtx(context.Background(), nil, box(), Config{}); err == nil {
		t.Error("no points should fail")
	}
	pts := []WeightedPoint{{Loc: geo.Point{Lon: 12.6, Lat: 55.7}, Weight: 1}}
	if _, err := EstimateCtx(context.Background(), pts, geo.EmptyBBox(), Config{}); err == nil {
		t.Error("empty box should fail")
	}
}

// TestKernelValid: the three kernels and the unset one are valid, and any
// other name is an ErrInput naming it, not a field that stamps nothing.
func TestKernelValid(t *testing.T) {
	for _, k := range []Kernel{"", KernelGaussian, KernelEpanechnikov, KernelUniform} {
		if err := k.Valid(); err != nil {
			t.Errorf("%q: %v", k, err)
		}
	}
	for _, k := range []Kernel{"bogus", "Gaussian", " uniform"} {
		if err := k.Valid(); !errors.Is(err, ErrInput) || !strings.Contains(err.Error(), string(k)) {
			t.Errorf("%q: %v, want ErrInput naming it", k, err)
		}
	}
}

func TestKernelsIntegrateToOne(t *testing.T) {
	// Numerically integrate each kernel over the plane.
	for _, k := range []Kernel{KernelGaussian, KernelEpanechnikov, KernelUniform} {
		sum := 0.0
		const step = 0.01
		for x := -5.0; x <= 5; x += step {
			for y := -5.0; y <= 5; y += step {
				sum += kernelValue(k, x*x+y*y) * step * step
			}
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("%s integrates to %v, want 1", k, sum)
		}
	}
}

func TestCompactKernelsHaveCompactSupport(t *testing.T) {
	for _, k := range []Kernel{KernelEpanechnikov, KernelUniform} {
		if v := kernelValue(k, 1.0001); v != 0 {
			t.Errorf("%s outside support = %v", k, v)
		}
	}
	if v := kernelValue(KernelGaussian, 4); v == 0 {
		t.Error("gaussian should be positive everywhere")
	}
}

func TestTruncatedMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var pts []WeightedPoint
	for i := 0; i < 30; i++ {
		pts = append(pts, WeightedPoint{
			Loc:    geo.Point{Lon: 12.5 + rng.Float64()*0.2, Lat: 55.6 + rng.Float64()*0.2},
			Weight: rng.Float64(),
		})
	}
	cfg := Config{Cols: 48, Rows: 48, Bandwidth: 0.01}
	fast, err := EstimateCtx(context.Background(), pts, box(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Exact = true
	exact, err := EstimateCtx(context.Background(), pts, box(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, peak := exact.MinMax()
	for i := range fast.Values {
		if math.Abs(fast.Values[i]-exact.Values[i]) > 1e-5*peak {
			t.Fatalf("cell %d: fast %v vs exact %v", i, fast.Values[i], exact.Values[i])
		}
	}
}

func TestSilvermanBandwidthPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pts []WeightedPoint
	for i := 0; i < 100; i++ {
		pts = append(pts, WeightedPoint{
			Loc: geo.Point{Lon: 12.5 + rng.NormFloat64()*0.02, Lat: 55.7 + rng.NormFloat64()*0.02},
		})
	}
	h := SilvermanBandwidth(pts)
	if h <= 0 || h > 0.1 {
		t.Errorf("bandwidth = %v", h)
	}
	// Degenerate inputs still give a usable bandwidth.
	if h := SilvermanBandwidth(nil); h <= 0 {
		t.Errorf("nil bandwidth = %v", h)
	}
	same := []WeightedPoint{{Loc: geo.Point{Lon: 12.5, Lat: 55.7}}, {Loc: geo.Point{Lon: 12.5, Lat: 55.7}}}
	if h := SilvermanBandwidth(same); h <= 0 {
		t.Errorf("coincident bandwidth = %v", h)
	}
}

func TestFieldSub(t *testing.T) {
	p := geo.Point{Lon: 12.6, Lat: 55.7}
	f1, _ := EstimateCtx(context.Background(), []WeightedPoint{{Loc: p, Weight: 1}}, box(), Config{Bandwidth: 0.02})
	f2, _ := EstimateCtx(context.Background(), []WeightedPoint{{Loc: p, Weight: 3}}, box(), Config{Bandwidth: 0.02})
	diff, err := f2.Sub(f1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range diff.Values {
		want := f2.Values[i] - f1.Values[i]
		if diff.Values[i] != want {
			t.Fatalf("sub wrong at %d", i)
		}
	}
	// Geometry mismatch fails.
	other, _ := EstimateCtx(context.Background(), []WeightedPoint{{Loc: p, Weight: 1}}, box(), Config{Cols: 32, Rows: 32, Bandwidth: 0.02})
	if _, err := f1.Sub(other); err == nil {
		t.Error("geometry mismatch should fail")
	}
}

func TestCellRoundTrip(t *testing.T) {
	f, _ := EstimateCtx(context.Background(), []WeightedPoint{{Loc: geo.Point{Lon: 12.6, Lat: 55.7}, Weight: 1}},
		box(), Config{Cols: 40, Rows: 30, Bandwidth: 0.02})
	for _, probe := range []struct{ c, r int }{{0, 0}, {39, 29}, {20, 15}, {7, 23}} {
		ctr := f.CellCenter(probe.c, probe.r)
		c, r := f.CellOf(ctr)
		if c != probe.c || r != probe.r {
			t.Errorf("cell (%d,%d) center maps back to (%d,%d)", probe.c, probe.r, c, r)
		}
	}
}

func TestEstimateAtMatchesFieldPeak(t *testing.T) {
	p := geo.Point{Lon: 12.6, Lat: 55.7}
	pts := []WeightedPoint{{Loc: p, Weight: 1}}
	h := 0.02
	direct := EstimateAt(pts, p, h, KernelGaussian)
	// Analytical: w * K(0) / (n h^2) = (1/(2pi)) / h^2.
	want := 1 / (2 * math.Pi * h * h)
	if math.Abs(direct-want) > 1e-9*want {
		t.Errorf("EstimateAt = %v, want %v", direct, want)
	}
	if EstimateAt(pts, p, 0, KernelGaussian) != 0 {
		t.Error("zero bandwidth should return 0")
	}
}

// randomPoints scatters n weighted points over box(), one of them with
// zero weight.
func randomPoints(seed int64, n int) []WeightedPoint {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]WeightedPoint, n)
	for i := range pts {
		pts[i] = WeightedPoint{
			Loc:    geo.Point{Lon: 12.4 + rng.Float64()*0.4, Lat: 55.5 + rng.Float64()*0.4},
			Weight: rng.Float64(),
		}
	}
	pts[n/2].Weight = 0
	return pts
}

var allKernels = []Kernel{KernelGaussian, KernelEpanechnikov, KernelUniform}

// TestEstimateMatchesOracle holds the separable stamp to the per-cell loop
// it replaced (estimateRef): every cell within 1e-12 of the peak, for every
// kernel, truncated and exact, and the same total mass.
func TestEstimateMatchesOracle(t *testing.T) {
	pts := randomPoints(9, 120)
	for _, k := range allKernels {
		for _, exact := range []bool{false, true} {
			// The compact kernels end at one bandwidth; give them one wide
			// enough to cover several cells.
			cfg := Config{Cols: 80, Rows: 60, Bandwidth: 0.03, Kernel: k, Exact: exact, Workers: 3}
			got, err := EstimateCtx(context.Background(), pts, box(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := estimateRef(pts, box(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, peak := want.MinMax()
			if peak <= 0 {
				t.Fatalf("%s exact=%v: oracle field is empty", k, exact)
			}
			worst := 0.0
			for i := range want.Values {
				d := math.Abs(got.Values[i] - want.Values[i])
				if d > 1e-12*peak {
					t.Fatalf("%s exact=%v: cell %d = %v, oracle %v (off by %.3g of the peak)",
						k, exact, i, got.Values[i], want.Values[i], d/peak)
				}
				worst = math.Max(worst, d/peak)
			}
			t.Logf("%s exact=%v: largest difference %.2g of the peak", k, exact, worst)
			if g, w := got.Integral(), want.Integral(); math.Abs(g-w) > 1e-12*math.Abs(w) {
				t.Errorf("%s exact=%v: integral %v, oracle %v", k, exact, g, w)
			}
		}
	}
}

// TestEstimateSinglePoint: one point, one stamp — also through the exported
// Stamp, which must add exactly what Estimate does and take it back out.
func TestEstimateSinglePoint(t *testing.T) {
	p := WeightedPoint{Loc: geo.Point{Lon: 12.61, Lat: 55.73}, Weight: 0.7}
	for _, k := range allKernels {
		cfg := Config{Cols: 50, Rows: 70, Bandwidth: 0.03, Kernel: k}
		got, err := EstimateCtx(context.Background(), []WeightedPoint{p}, box(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := estimateRef([]WeightedPoint{p}, box(), cfg)
		_, peak := want.MinMax()
		stamped := &Field{Box: box(), Cols: 50, Rows: 70, Values: make([]float64, 50*70), Bandwidth: 0.03, Kernel: k}
		stamped.Stamp(p, 1)
		for i := range want.Values {
			if math.Abs(got.Values[i]-want.Values[i]) > 1e-12*peak {
				t.Fatalf("%s: cell %d = %v, oracle %v", k, i, got.Values[i], want.Values[i])
			}
			if stamped.Values[i] != got.Values[i] {
				t.Fatalf("%s: Stamp cell %d = %v, Estimate %v", k, i, stamped.Values[i], got.Values[i])
			}
		}
		stamped.Stamp(p, -1)
		if lo, hi := stamped.MinMax(); lo != 0 || hi != 0 {
			t.Errorf("%s: stamp then unstamp left [%v, %v]", k, lo, hi)
		}
	}
}

// TestEstimateWorkerCountIdentity: the field is bit-identical for every
// Workers value, including more workers than raster rows.
func TestEstimateWorkerCountIdentity(t *testing.T) {
	pts := randomPoints(9, 120)
	for _, grid := range [][2]int{{80, 80}, {40, 5}, {7, 2}} {
		for _, k := range allKernels {
			for _, exact := range []bool{false, true} {
				cfg := Config{Cols: grid[0], Rows: grid[1], Bandwidth: 0.03, Kernel: k, Exact: exact, Workers: 1}
				serial, err := EstimateCtx(context.Background(), pts, box(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 3, 8, 0} {
					cfg.Workers = workers
					par, err := EstimateCtx(context.Background(), pts, box(), cfg)
					if err != nil {
						t.Fatalf("%v %s workers=%d exact=%v: %v", grid, k, workers, exact, err)
					}
					for i := range serial.Values {
						if par.Values[i] != serial.Values[i] {
							t.Fatalf("%v %s workers=%d exact=%v: cell %d = %v, serial %v",
								grid, k, workers, exact, i, par.Values[i], serial.Values[i])
						}
					}
				}
			}
		}
	}
}

// TestSilvermanBandwidthMatchesDefinition checks the sort-once quartiles
// against the rule written out longhand.
func TestSilvermanBandwidthMatchesDefinition(t *testing.T) {
	pts := randomPoints(4, 101)
	axis := func(get func(geo.Point) float64) float64 {
		xs := make([]float64, len(pts))
		mu := 0.0
		for i, p := range pts {
			xs[i] = get(p.Loc)
			mu += xs[i]
		}
		mu /= float64(len(xs))
		v := 0.0
		for _, x := range xs {
			v += (x - mu) * (x - mu)
		}
		sort.Float64s(xs)
		// n = 101: the quartiles fall exactly on ranks 25 and 75.
		spread := math.Min(math.Sqrt(v/float64(len(xs))), (xs[75]-xs[25])/1.34)
		return 1.06 * spread * math.Pow(float64(len(xs)), -0.2)
	}
	want := (axis(func(p geo.Point) float64 { return p.Lon }) + axis(func(p geo.Point) float64 { return p.Lat })) / 2
	before := append([]WeightedPoint(nil), pts...)
	if got := SilvermanBandwidth(pts); math.Abs(got-want) > 1e-15 {
		t.Errorf("SilvermanBandwidth = %v, want %v", got, want)
	}
	for i := range pts {
		if pts[i] != before[i] {
			t.Fatalf("SilvermanBandwidth reordered its input at %d", i)
		}
	}
}

func TestEstimateCtxCancelled(t *testing.T) {
	pts := []WeightedPoint{{Loc: geo.Point{Lon: 12.6, Lat: 55.7}, Weight: 1}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EstimateCtx(ctx, pts, box(), Config{Cols: 64, Rows: 64, Bandwidth: 0.02}); err == nil {
		t.Fatal("cancelled context did not abort Estimate")
	}
}
