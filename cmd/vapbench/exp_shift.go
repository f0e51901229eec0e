package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"vap/internal/api"
	"vap/internal/core"
	"vap/internal/kde"
	"vap/internal/query"
	"vap/internal/stream"

	"io"
	"net/http"
)

// midWinterNoon returns an anchor timestamp: day 30 of the dataset, noon.
func midWinterNoon(h *harness) int64 {
	return h.ds.Start.Unix() + 30*86400 + 12*3600
}

// runE2 reproduces Figure 2: KDE density maps for an afternoon window
// (commercial demand high) and an evening window (residential high), their
// Eq. 4 difference, and OD flows. The planted city has its commercial core
// at the center and residential districts around it, so the shift centroid
// must move away from the core and flows must originate near it.
func runE2(h *harness) error {
	ctx := context.Background()
	noon := midWinterNoon(h)
	res, err := h.an.ShiftPatternsCtx(ctx, core.ShiftConfig{
		T1:          noon,          // 12:00-16:00 bucket (4-hourly)
		T2:          noon + 8*3600, // 20:00-24:00 bucket
		Granularity: query.Gran4Hourly,
	})
	if err != nil {
		return err
	}
	s := res.Summary
	coreLoc := h.ds.Center // the planted commercial core
	// Two directional checks. The residential districts ring the core, so
	// mass-weighted gain/loss centroids vector-average back toward the
	// center and are NOT a valid direction test; instead:
	//  (a) net balance near the core: within 1.2 km of the commercial core,
	//      lost demand mass must exceed gained mass (the core empties);
	//  (b) OD flow direction: the majority of transported mass must move
	//      away from the core (origin nearer the core than destination).
	const coreRadius = 1200.0
	var coreLoss, coreGain float64
	for r := 0; r < res.Shift.Rows; r++ {
		for c := 0; c < res.Shift.Cols; c++ {
			if res.Shift.CellCenter(c, r).DistanceTo(coreLoc) > coreRadius {
				continue
			}
			v := res.Shift.At(c, r)
			if v < 0 {
				coreLoss += -v
			} else {
				coreGain += v
			}
		}
	}
	var outMass, totMass float64
	for _, f := range res.Flows {
		totMass += f.Mass
		if f.From.DistanceTo(coreLoc) < f.To.DistanceTo(coreLoc) {
			outMass += f.Mass
		}
	}
	outFrac := 0.0
	if totMass > 0 {
		outFrac = outMass / totMass
	}
	printTable(
		[]string{"quantity", "value"},
		[][]string{
			{"meters", fmt.Sprintf("%d", res.Meters)},
			{"flows extracted", fmt.Sprintf("%d", len(res.Flows))},
			{"shift L1 mass", fmt.Sprintf("%.4f", s.L1)},
			{"demand lost within 1.2 km of core", fmt.Sprintf("%.3f", coreLoss)},
			{"demand gained within 1.2 km of core", fmt.Sprintf("%.3f", coreGain)},
			{"core is a net loser", okMark(coreLoss > coreGain)},
			{"flow mass moving away from core", fmt.Sprintf("%.0f%%", 100*outFrac)},
			{"majority of flow runs core->residential", okMark(outFrac > 0.5)},
		})

	// E2a: kernel ablation (paper argues for Gaussian).
	fmt.Println("\nE2a kernel ablation (same windows):")
	var rows [][]string
	for _, k := range []kde.Kernel{kde.KernelGaussian, kde.KernelEpanechnikov, kde.KernelUniform} {
		t0 := time.Now()
		r2, err := h.an.ShiftPatternsCtx(ctx, core.ShiftConfig{
			T1: noon, T2: noon + 8*3600,
			Granularity: query.Gran4Hourly, Kernel: k,
		})
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			string(k),
			fmt.Sprintf("%.4f", r2.Summary.L1),
			fmt.Sprintf("%.0f m", r2.Summary.ShiftMeters),
			fmt.Sprintf("%d", len(r2.Flows)),
			time.Since(t0).Round(time.Millisecond).String(),
		})
	}
	printTable([]string{"kernel", "L1", "shift dist", "flows", "time"}, rows)

	// E2b: exact vs truncated-support KDE evaluation.
	fmt.Println("\nE2b exact vs truncated KDE (max abs cell difference):")
	pts, err := h.an.Engine().DemandSnapshotCtx(ctx, query.Selection{}, noon, noon+4*3600)
	if err != nil {
		return err
	}
	wpts := make([]kde.WeightedPoint, len(pts))
	for i, p := range pts {
		wpts[i] = kde.WeightedPoint{Loc: p.Loc, Weight: p.Weight}
	}
	box := h.st.Catalog().Bounds().Buffer(0.002)
	t0 := time.Now()
	fTrunc, err := kde.EstimateCtx(ctx, wpts, box, kde.Config{})
	if err != nil {
		return err
	}
	dTrunc := time.Since(t0)
	t0 = time.Now()
	fExact, err := kde.EstimateCtx(ctx, wpts, box, kde.Config{Exact: true})
	if err != nil {
		return err
	}
	dExact := time.Since(t0)
	maxDiff := 0.0
	for i := range fTrunc.Values {
		d := fTrunc.Values[i] - fExact.Values[i]
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	_, hi := fExact.MinMax()
	printTable([]string{"variant", "time", "max |diff| / peak"},
		[][]string{
			{"truncated (5h support)", dTrunc.Round(time.Millisecond).String(), fmt.Sprintf("%.2e", maxDiff/hi)},
			{"exact", dExact.Round(time.Millisecond).String(), "0"},
		})
	return nil
}

// runE6 sweeps the seven granularities of S2 step 1 at fixed anchors and
// reports the shift magnitude: fine granularities see the diurnal
// commercial->residential shift; coarse ones (daily and beyond) average it
// away or collapse both anchors into one bucket.
func runE6(h *harness) error {
	noon := midWinterNoon(h)
	gs, sums, err := h.an.GranularitySweep(context.Background(), core.ShiftConfig{
		T1: noon, T2: noon + 8*3600,
	})
	if err != nil {
		return err
	}
	var rows [][]string
	for i, g := range gs {
		s := sums[i]
		note := ""
		if s.L1 == 0 && s.ShiftMeters == 0 {
			note = "anchors merge into one bucket"
		}
		rows = append(rows, []string{
			string(g),
			fmt.Sprintf("%.4f", s.L1),
			fmt.Sprintf("%.0f m", s.ShiftMeters),
			note,
		})
	}
	printTable([]string{"granularity", "shift L1", "centroid shift", "note"}, rows)
	fmt.Println("  (expected shape: L1 decreases with coarser granularity; daily+ merges the anchors)")

	// Same-day vs cross-season daily shift: coarse granularities do expose
	// seasonal shifts when the anchors are far apart.
	winter := h.ds.Start.Unix() + 15*86400
	summer := h.ds.Start.Unix() + 196*86400
	if r, err := h.an.ShiftPatternsCtx(context.Background(), core.ShiftConfig{
		T1: winter, T2: summer, Granularity: query.GranMonthly,
	}); err == nil {
		fmt.Printf("  cross-season monthly shift (Jan vs Jul): L1=%.4f centroid=%.0f m\n",
			r.Summary.L1, r.Summary.ShiftMeters)
	}
	return nil
}

// runE7 sweeps the consumption-intensity quantile (S2 step 2): higher
// quantiles keep only heavy consumers, concentrating and then shrinking
// the shift signal.
func runE7(h *harness) error {
	noon := midWinterNoon(h)
	quantiles := []float64{0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90}
	sums, err := h.an.IntensitySweep(context.Background(), core.ShiftConfig{
		T1: noon, T2: noon + 8*3600, Granularity: query.Gran4Hourly,
	}, quantiles)
	if err != nil {
		return err
	}
	var rows [][]string
	for i, q := range quantiles {
		ids, err := h.an.Engine().IntensityBandCtx(context.Background(), query.Selection{}, q)
		if err != nil {
			return err
		}
		maj, share := majorityPattern(patternCounts(h.ds, ids))
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", q*100),
			fmt.Sprintf("%d", len(ids)),
			fmt.Sprintf("%.4f", sums[i].L1),
			fmt.Sprintf("%.0f m", sums[i].ShiftMeters),
			fmt.Sprintf("%s (%.0f%%)", maj, share*100),
		})
	}
	printTable([]string{"quantile", "meters kept", "shift L1", "centroid shift", "dominant pattern"}, rows)
	fmt.Println("  (expected shape: higher quantiles select constant-high/commercial customers)")
	return nil
}

// runE8 reproduces the S2 step-3 streaming simulation with a zero
// wall-clock interval (throughput mode) and reports ingest rate plus
// per-tick density-update latency.
func runE8(h *harness) error {
	box := h.st.Catalog().Bounds().Buffer(0.002)
	tracker, err := stream.NewTracker(box, 64, 64, 0.004, len(h.ds.Customers))
	if err != nil {
		return err
	}
	hub := stream.NewHub()
	ch, cancel := hub.Subscribe()
	defer cancel()
	received := 0
	done := make(chan struct{})
	go func() {
		for range ch {
			received++
		}
		close(done)
	}()
	feeds := make([]stream.Feed, len(h.ds.Customers))
	for i, c := range h.ds.Customers {
		feeds[i] = stream.Feed{MeterID: c.Meter.ID, Loc: c.Meter.Location, Samples: h.ds.Readings[i]}
	}
	from := h.ds.Start.Unix()
	to := from + 7*86400 // one week
	rp := &stream.Replayer{Tracker: tracker, Hub: hub, Interval: 0, Step: 3600}
	t0 := time.Now()
	ticks, err := rp.Run(context.Background(), feeds, from, to)
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	cancel()
	<-done
	readings := ticks * len(feeds)
	printTable([]string{"metric", "value"},
		[][]string{
			{"ticks (data hours)", fmt.Sprintf("%d", ticks)},
			{"readings ingested", fmt.Sprintf("%d", readings)},
			{"wall time", elapsed.Round(time.Millisecond).String()},
			{"throughput", fmt.Sprintf("%.0f readings/s", float64(readings)/elapsed.Seconds())},
			{"per-tick latency", (elapsed / time.Duration(ticks)).Round(time.Microsecond).String()},
			{"hub events received", fmt.Sprintf("%d", received)},
		})
	_, sum := tracker.Snapshot()
	fmt.Printf("  final hot cell at %.4f,%.4f (max density %.4f)\n",
		sum.HotCell.Lon, sum.HotCell.Lat, sum.MaxDensity)
	return nil
}

// runE10 measures REST endpoint latency over the full dataset.
func runE10(h *harness) error {
	srv := httptest.NewServer(api.NewServer(h.an, nil).Routes())
	defer srv.Close()
	noon := midWinterNoon(h)
	endpoints := []struct {
		name, path string
	}{
		{"health", "/api/health"},
		{"stats", "/api/stats"},
		{"customers", "/api/customers"},
		{"series (daily)", "/api/series?id=1&granularity=daily"},
		{"reduce (mds)", "/api/reduce?method=mds"},
		{"patterns (brush)", "/api/patterns?method=mds&bx0=0.4&by0=0.4&bx1=0.9&by1=0.9"},
		{"flow (4hourly)", fmt.Sprintf("/api/flow?t1=%d&t2=%d&granularity=4hourly", noon, noon+8*3600)},
		{"map.svg (shift)", fmt.Sprintf("/view/map.svg?mode=shift&t1=%d&t2=%d", noon, noon+8*3600)},
		{"scatter.svg", "/view/scatter.svg?method=mds"},
		{"series.svg", "/view/series.svg?granularity=weekly"},
	}
	var rows [][]string
	for _, e := range endpoints {
		// Warm (populates the reduction cache), then measure.
		if _, err := get(srv.URL + e.path); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		t0 := time.Now()
		n, err := get(srv.URL + e.path)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		rows = append(rows, []string{e.name, fmt.Sprintf("%d B", n), time.Since(t0).Round(time.Microsecond).String()})
	}
	printTable([]string{"endpoint", "payload", "warm latency"}, rows)
	return nil
}

func get(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, truncate(string(b), 200))
	}
	return len(b), nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
