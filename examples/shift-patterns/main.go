// Shift-patterns example: demo scenario S2 — Figure 2's flow map method.
//
// It computes the commercial->residential evening demand shift, sweeps the
// paper's seven temporal granularities and the 30%..90% consumption
// intensity quantiles, and writes the flow map as SVG.
//
// Run: go run ./examples/shift-patterns
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"vap"
	"vap/internal/core"
	"vap/internal/viz"
)

func main() {
	st, err := vap.OpenInMemory()
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	ds := vap.GenerateDataset(vap.DatasetConfig{Seed: 5, Days: 90})
	if err := ds.LoadInto(st); err != nil {
		log.Fatal(err)
	}
	an := vap.NewAnalyzer(st)
	noon := ds.Start.Unix() + 30*86400 + 12*3600

	// Figure 2: afternoon vs evening density difference.
	res, err := an.ShiftPatternsCtx(context.Background(), vap.ShiftConfig{
		T1: noon, T2: noon + 8*3600, Granularity: vap.Gran4Hourly,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flow map 12-16h -> 20-24h: %d flows over %d meters\n", len(res.Flows), res.Meters)
	fmt.Printf("  demand centroid moved %.0f m (bearing %.0f°), L1 shift mass %.4f\n",
		res.Summary.ShiftMeters, res.Summary.ShiftBearing, res.Summary.L1)

	svg := (&viz.MapView{
		Box: res.Box, Heat: res.Shift, HeatDiv: true, Flows: res.Flows,
		Title: "demand shift: afternoon -> evening",
	}).Render()
	if err := os.WriteFile("flowmap.svg", []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  wrote flowmap.svg")

	// S2 step 1: granularity sensitivity.
	fmt.Println("\ngranularity sweep (same anchors):")
	gs, sums, err := an.GranularitySweep(context.Background(), core.ShiftConfig{T1: noon, T2: noon + 8*3600})
	if err != nil {
		log.Fatal(err)
	}
	for i, g := range gs {
		if sums[i].L1 == 0 {
			fmt.Printf("  %-10s anchors fall in the same bucket\n", g)
			continue
		}
		fmt.Printf("  %-10s shift L1=%.4f centroid=%.0f m\n", g, sums[i].L1, sums[i].ShiftMeters)
	}

	// S2 step 2: intensity quantile sensitivity.
	fmt.Println("\nintensity quantile sweep (4-hourly):")
	quantiles := []float64{0.3, 0.5, 0.7, 0.9}
	isums, err := an.IntensitySweep(context.Background(), core.ShiftConfig{
		T1: noon, T2: noon + 8*3600, Granularity: vap.Gran4Hourly,
	}, quantiles)
	if err != nil {
		log.Fatal(err)
	}
	for i, q := range quantiles {
		fmt.Printf("  top %2.0f%%: shift L1=%.4f centroid=%.0f m\n",
			(1-q)*100, isums[i].L1, isums[i].ShiftMeters)
	}
}
