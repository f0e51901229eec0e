// Quickstart: generate a synthetic smart-meter city, discover typical
// consumption patterns by brushing the reduced 2-D view, and compute one
// demand-shift flow map — the whole Figure 1 loop in ~60 lines.
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"vap"
)

func main() {
	// Data layer: in-memory store with a planted synthetic city.
	st, err := vap.OpenInMemory()
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	ds := vap.GenerateDataset(vap.DatasetConfig{Seed: 1, Days: 120})
	if err := ds.LoadInto(st); err != nil {
		log.Fatal(err)
	}
	stats := st.Stats()
	fmt.Printf("loaded %d meters, %d readings (%.1fx compressed)\n",
		stats.Meters, stats.Samples, float64(stats.RawBytes)/float64(stats.CompressedBytes))

	// Models layer: reduce every meter's daily series to a 2-D point.
	an := vap.NewAnalyzer(st)
	view, err := an.TypicalPatterns(context.Background(), vap.TypicalConfig{
		Seed:            1,
		UseDailyProfile: true, // 24-hour day shapes: the labels read naturally
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("view C ready: %d points from %d-dim series (%s, %s)\n",
		len(view.Points), view.FeatDim, view.Method, view.Metric)

	// User interaction: brush the four quadrants of the navigator and see
	// what consumption pattern each contains.
	quadrants := []vap.Brush{
		{MinX: 0.0, MinY: 0.5, MaxX: 0.5, MaxY: 1.0},
		{MinX: 0.5, MinY: 0.5, MaxX: 1.0, MaxY: 1.0},
		{MinX: 0.0, MinY: 0.0, MaxX: 0.5, MaxY: 0.5},
		{MinX: 0.5, MinY: 0.0, MaxX: 1.0, MaxY: 0.5},
	}
	for i, b := range quadrants {
		ids, rows, err := view.SelectBrush(b)
		if err != nil {
			fmt.Printf("quadrant %d: empty\n", i+1)
			continue
		}
		prof, err := view.Profile(rows)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("quadrant %d: %3d customers, label=%s\n", i+1, len(ids), prof.Label)
	}

	// Shift patterns: afternoon vs evening of one winter day.
	noon := ds.Start.Unix() + 30*86400 + 12*3600
	res, err := an.ShiftPatternsCtx(context.Background(), vap.ShiftConfig{
		T1: noon, T2: noon + 8*3600, Granularity: vap.Gran4Hourly,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("demand shift 12-16h -> 20-24h: %d flows, centroid moved %.0f m at bearing %.0f°\n",
		len(res.Flows), res.Summary.ShiftMeters, res.Summary.ShiftBearing)
}
