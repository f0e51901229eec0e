package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func fakeRun(t *testing.T, name string, scale map[string]float64, spread float64, failed int) string {
	t.Helper()
	r := &result{Workload: "dash", Seed: 1, Attempted: 100, Failed: failed, Metrics: map[string]metric{}, Layers: map[string]metric{}}
	for _, d := range endToEnd {
		v := 100.0
		if s, ok := scale[d.Name]; ok {
			v *= s
		}
		// Eight windows, half of them at each end of the spread: that is
		// also their quartile distance.
		lo, hi := v*(1-spread/2), v*(1+spread/2)
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit, N: 10, Min: lo, Max: hi, Windows: []float64{lo, lo, lo, lo, hi, hi, hi, hi}}
	}
	path := filepath.Join(t.TempDir(), name)
	if err := writeJSON(path, &runFile{Seed: 1, Results: []*result{r}}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareRuns(t *testing.T) {
	base := fakeRun(t, "a.json", nil, 0.02, 0)
	var out bytes.Buffer

	if code := compareRuns(&out, base, fakeRun(t, "b.json", map[string]float64{"primary_p50_ms": 1.1, "ops_per_s": 0.9}, 0.02, 0)); code != 0 {
		t.Errorf("10%% worse inside a 25%% bound exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRuns(&out, base, fakeRun(t, "c.json", map[string]float64{"primary_p50_ms": 1.4}, 0.02, 0)); code != 1 || !strings.Contains(out.String(), "VIOLATION") {
		t.Errorf("40%% slower latency exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRuns(&out, base, fakeRun(t, "d.json", map[string]float64{"ops_per_s": 0.6}, 0.02, 0)); code != 1 {
		t.Errorf("40%% lower throughput exits %d:\n%s", code, out.String())
	}
	out.Reset()
	// Faster is never a violation, whatever the direction.
	if code := compareRuns(&out, base, fakeRun(t, "e.json", map[string]float64{"primary_p50_ms": 0.5, "ops_per_s": 2}, 0.02, 0)); code != 0 {
		t.Errorf("an improvement exits %d:\n%s", code, out.String())
	}
	out.Reset()
	// A window spread wider than the bound cannot resolve a regression of that size.
	if code := compareRuns(&out, base, fakeRun(t, "f.json", map[string]float64{"primary_p50_ms": 1.4}, 0.3, 0)); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy run exits %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRuns(&out, base, fakeRun(t, "g.json", nil, 0.02, 3)); code != 1 {
		t.Errorf("failed requests exit %d:\n%s", code, out.String())
	}
}
