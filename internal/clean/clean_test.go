package clean

import (
	"math"
	"testing"

	"vap/internal/store"
)

func regular(n int, step int64, f func(i int) float64) []store.Sample {
	out := make([]store.Sample, n)
	for i := range out {
		out[i] = store.Sample{TS: int64(i) * step, Value: f(i)}
	}
	return out
}

func TestDetectAnomaliesRobustZ(t *testing.T) {
	s := regular(100, 3600, func(i int) float64 {
		if i == 50 {
			return 500
		}
		return 10 + float64(i%5)
	})
	idx, err := DetectAnomalies(s, AnomalyConfig{Method: MethodRobustZ})
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 || idx[0] != 50 {
		t.Fatalf("anomalies = %v, want [50]", idx)
	}
}

func TestDetectAnomaliesHampelLocal(t *testing.T) {
	// A level shift halfway: Hampel (local) must not flag the new level,
	// only the lone spike.
	s := regular(200, 3600, func(i int) float64 {
		base := 10.0
		if i >= 100 {
			base = 50
		}
		if i == 150 {
			return 500
		}
		return base + float64(i%3)
	})
	idx, err := DetectAnomalies(s, AnomalyConfig{Method: MethodHampel, Window: 10, Threshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, i := range idx {
		if i == 150 {
			found = true
		}
		// Allow boundary effects right at the level shift, nothing else.
		if i != 150 && (i < 95 || i > 105) {
			t.Fatalf("hampel flagged steady region index %d", i)
		}
	}
	if !found {
		t.Fatal("hampel missed the spike at 150")
	}
}

func TestDetectAnomaliesNegative(t *testing.T) {
	s := regular(10, 60, func(i int) float64 {
		if i == 3 {
			return -5
		}
		return 1
	})
	idx, err := DetectAnomalies(s, AnomalyConfig{Method: MethodNegative})
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 || idx[0] != 3 {
		t.Fatalf("negatives = %v", idx)
	}
}

func TestDetectAnomaliesErrors(t *testing.T) {
	if _, err := DetectAnomalies(nil, AnomalyConfig{}); err != ErrEmpty {
		t.Errorf("empty err = %v", err)
	}
	if _, err := DetectAnomalies(regular(5, 1, func(int) float64 { return 1 }),
		AnomalyConfig{Method: "magic"}); err == nil {
		t.Error("unknown method should fail")
	}
}

func TestFindGaps(t *testing.T) {
	s := []store.Sample{
		{TS: 0, Value: 1}, {TS: 3600, Value: 1},
		{TS: 4 * 3600, Value: 1}, // 2 missing
		{TS: 5 * 3600, Value: 1},
	}
	gaps, err := FindGaps(s, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if len(gaps) != 1 {
		t.Fatalf("gaps = %v", gaps)
	}
	if gaps[0].Missing != 2 || gaps[0].AfterTS != 3600 || gaps[0].BeforeTS != 4*3600 {
		t.Fatalf("gap = %+v", gaps[0])
	}
	if _, err := FindGaps(s, 0); err == nil {
		t.Error("zero step should fail")
	}
}

func TestFillGapsLinear(t *testing.T) {
	s := []store.Sample{
		{TS: 0, Value: 0}, {TS: 3 * 3600, Value: 9},
	}
	out, err := FillGaps(s, 3600, FillLinear, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("filled length = %d", len(out))
	}
	want := []float64{0, 3, 6, 9}
	for i, w := range want {
		if math.Abs(out[i].Value-w) > 1e-9 {
			t.Fatalf("out[%d] = %v, want %v", i, out[i].Value, w)
		}
	}
}

func TestFillGapsForward(t *testing.T) {
	s := []store.Sample{{TS: 0, Value: 7}, {TS: 3 * 60, Value: 1}}
	out, err := FillGaps(s, 60, FillForward, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out[1].Value != 7 || out[2].Value != 7 {
		t.Fatalf("forward fill = %v", out)
	}
}

func TestFillGapsSeasonal(t *testing.T) {
	// Period 4; values cycle 1,2,3,4. Drop one full cycle position and it
	// should come back from one period earlier.
	var s []store.Sample
	for i := 0; i < 12; i++ {
		if i == 6 {
			continue // missing
		}
		s = append(s, store.Sample{TS: int64(i) * 60, Value: float64(i%4 + 1)})
	}
	out, err := FillGaps(s, 60, FillSeasonal, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out[6].Value != float64(6%4+1) {
		t.Fatalf("seasonal fill = %v, want %v", out[6].Value, 6%4+1)
	}
	if _, err := FillGaps(s, 60, FillSeasonal, 0); err == nil {
		t.Error("seasonal without period should fail")
	}
}

func TestFillGapsUnknownMethod(t *testing.T) {
	s := regular(3, 60, func(i int) float64 { return 1 })
	if _, err := FillGaps(s, 60, "spline", 0); err == nil {
		t.Error("unknown method should fail")
	}
}
