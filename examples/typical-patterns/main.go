// Typical-patterns example: demo scenario S1 end to end.
//
// It answers the scenario's four steps:
//  1. "Who are the early birds with a morning peak between 5:00-7:00?"
//  2. How do patterns transition as the brush moves across the view?
//  3. How do t-SNE and MDS layouts compare?
//  4. How does the k-means baseline compare with visual selection?
//
// It also writes view C as SVG files (one per reduction method) to the
// working directory so the layouts can be inspected in a browser.
//
// Run: go run ./examples/typical-patterns
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"vap"
	"vap/internal/cluster"
	"vap/internal/stat"
	"vap/internal/viz"
)

func main() {
	st, err := vap.OpenInMemory()
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	ds := vap.GenerateDataset(vap.DatasetConfig{Seed: 7, Days: 365})
	if err := ds.LoadInto(st); err != nil {
		log.Fatal(err)
	}
	an := vap.NewAnalyzer(st)
	ctx := context.Background()
	truth := ds.Labels()

	// Step 1: the early-birds question, asked on the 24-hour day profile.
	dayView, err := an.TypicalPatterns(ctx, vap.TypicalConfig{Seed: 7, UseDailyProfile: true})
	if err != nil {
		log.Fatal(err)
	}
	ids, rows, err := dayView.SelectBrush(earlyBirdRegion(dayView, ds))
	if err != nil {
		log.Fatal(err)
	}
	prof, err := dayView.Profile(rows)
	if err != nil {
		log.Fatal(err)
	}
	peak := 0
	for h, v := range prof.Mean {
		if v > prof.Mean[peak] {
			peak = h
		}
	}
	fmt.Printf("S1.1 early birds: brushed %d customers, profile peaks at %02d:00, label=%s\n",
		len(ids), peak, prof.Label)

	// Step 2: pattern transition — slide a brush across the x axis and
	// watch the label change.
	fmt.Println("S1.2 pattern transition while sliding the brush left to right:")
	yearView, err := an.TypicalPatterns(ctx, vap.TypicalConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	for x := 0.0; x < 1; x += 0.25 {
		b := vap.Brush{MinX: x, MinY: 0, MaxX: x + 0.25, MaxY: 1}
		sel, rowIdx, err := yearView.SelectBrush(b)
		if err != nil {
			fmt.Printf("  x in [%.2f,%.2f): empty\n", x, x+0.25)
			continue
		}
		p, err := yearView.Profile(rowIdx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  x in [%.2f,%.2f): %3d customers, label=%s\n", x, x+0.25, len(sel), p.Label)
	}

	// Step 3: t-SNE vs MDS layouts, rendered side by side.
	fmt.Println("S1.3 layout comparison (silhouette vs planted patterns):")
	for _, m := range []vap.ReductionMethod{vap.MethodTSNE, vap.MethodMDS} {
		v, err := an.TypicalPatterns(ctx, vap.TypicalConfig{Seed: 7, Method: m})
		if err != nil {
			log.Fatal(err)
		}
		sil, err := stat.Silhouette(len(v.Points), truth, func(i, j int) float64 {
			return v.Points.Dist(i, j)
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s silhouette=%.3f\n", m, sil)
		svg := (&viz.ScatterView{Points: v.Points, Labels: truth,
			Title: fmt.Sprintf("view C: %s", m)}).Render()
		name := fmt.Sprintf("viewC_%s.svg", m)
		if err := os.WriteFile(name, []byte(svg), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wrote %s\n", name)
	}

	// Step 4: k-means baseline on the raw series.
	_, _, series, err := an.Engine().MeterMatrixCtx(context.Background(), vap.Selection{}, vap.GranDaily, "mean")
	if err != nil {
		log.Fatal(err)
	}
	km, err := cluster.KMeans(series, cluster.KMeansConfig{K: 5, Seed: 7, NormalizeZ: true})
	if err != nil {
		log.Fatal(err)
	}
	ari, _ := stat.AdjustedRandIndex(km.Labels, truth)
	fmt.Printf("S1.4 k-means (k=5) baseline: ARI vs planted patterns = %.3f\n", ari)
}

// earlyBirdRegion centers a brush on the embedding region where the
// ground-truth early-bird cohort sits — standing in for the conference
// attendee who lassos that cluster after spotting the morning peak.
func earlyBirdRegion(view *vap.TypicalView, ds *vap.Dataset) vap.Brush {
	var xs, ys []float64
	for i, c := range ds.Customers {
		if c.Pattern == vap.PatternEarlyBird {
			xs = append(xs, view.Points[i][0])
			ys = append(ys, view.Points[i][1])
		}
	}
	cx, cy := stat.Median(xs), stat.Median(ys)
	rx := 1.8*stat.MAD(xs) + 0.02
	ry := 1.8*stat.MAD(ys) + 0.02
	return vap.Brush{MinX: cx - rx, MinY: cy - ry, MaxX: cx + rx, MaxY: cy + ry}
}
