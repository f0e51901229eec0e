package main

import (
	"context"
	"fmt"
	"time"

	"vap/internal/cluster"
	"vap/internal/core"
	"vap/internal/gen"
	"vap/internal/query"
	"vap/internal/reduce"
	"vap/internal/stat"
	"vap/internal/viz"
)

// runE1 exercises the Figure 1 loop end-to-end: data -> models ->
// visualization, reporting stage timings.
func runE1(h *harness) error {
	ctx := context.Background()
	t0 := time.Now()
	view, err := h.an.TypicalPatterns(ctx, core.TypicalConfig{Seed: h.seed})
	if err != nil {
		return err
	}
	tReduce := time.Since(t0)

	t0 = time.Now()
	ids, rowIdx, err := view.SelectBrush(core.Brush{MinX: 0, MinY: 0, MaxX: 0.25, MaxY: 0.25})
	if err != nil {
		// An empty corner brush is possible; fall back to the full view.
		ids, rowIdx, err = view.SelectBrush(core.Brush{MaxX: 1, MaxY: 1})
		if err != nil {
			return err
		}
	}
	prof, err := view.Profile(rowIdx)
	if err != nil {
		return err
	}
	tBrush := time.Since(t0)

	t0 = time.Now()
	anchor := h.ds.Start.Unix() + 30*86400
	res, err := h.an.ShiftPatternsCtx(ctx, core.ShiftConfig{
		T1: anchor + 12*3600, T2: anchor + 20*3600,
		Granularity: query.Gran4Hourly,
	})
	if err != nil {
		return err
	}
	tShift := time.Since(t0)

	t0 = time.Now()
	scatter := (&viz.ScatterView{Points: view.Points}).Render()
	mapSVG := (&viz.MapView{Box: res.Box, Heat: res.Shift, HeatDiv: true, Flows: res.Flows}).Render()
	tRender := time.Since(t0)

	printTable(
		[]string{"stage", "output", "time"},
		[][]string{
			{"reduce (t-SNE, Pearson)", fmt.Sprintf("%d points, %d-dim", len(view.Points), view.FeatDim), tReduce.Round(time.Millisecond).String()},
			{"brush + profile", fmt.Sprintf("%d meters, label=%s", len(ids), prof.Label), tBrush.Round(time.Microsecond).String()},
			{"shift (KDE + Eq.4 + OD)", fmt.Sprintf("%d flows, %d meters", len(res.Flows), res.Meters), tShift.Round(time.Millisecond).String()},
			{"render SVG views", fmt.Sprintf("%d + %d bytes", len(scatter), len(mapSVG)), tRender.Round(time.Millisecond).String()},
		})
	return nil
}

// embeddingQuality computes silhouette and k-NN purity of an embedding
// against ground-truth labels.
func embeddingQuality(emb reduce.Embedding, labels []int) (sil, knn float64, err error) {
	dist := func(i, j int) float64 { return emb.Dist(i, j) }
	sil, err = stat.Silhouette(len(emb), labels, dist)
	if err != nil {
		return 0, 0, err
	}
	knn, err = stat.NeighborhoodPurity(len(emb), 10, labels, dist)
	return sil, knn, err
}

// runE3 reproduces Figure 3 / S1: the five planted patterns are separable
// in the t-SNE+Pearson view, and brushing each ground-truth group recovers
// a profile whose heuristic label matches the planted pattern.
func runE3(h *harness) error {
	ctx := context.Background()
	labels := h.ds.Labels()
	rows := [][]string{}
	for _, metric := range []reduce.Metric{reduce.MetricPearson, reduce.MetricEuclidean} {
		t0 := time.Now()
		view, err := h.an.TypicalPatterns(ctx, core.TypicalConfig{Seed: h.seed, Metric: metric})
		if err != nil {
			return err
		}
		sil, knn, err := embeddingQuality(view.Points, labels)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			"tsne/" + string(metric),
			fmt.Sprintf("%.3f", sil),
			fmt.Sprintf("%.3f", knn),
			time.Since(t0).Round(time.Millisecond).String(),
		})
	}
	fmt.Println("embedding separability (E3a ablation: Pearson vs Euclidean):")
	printTable([]string{"method/metric", "silhouette", "knn-purity@10", "time"}, rows)

	// Brush recovery: brush the bounding box of each ground-truth group
	// (shrunk 10% to mimic a user's selection) and label the profile.
	view, err := h.an.TypicalPatterns(ctx, core.TypicalConfig{Seed: h.seed})
	if err != nil {
		return err
	}
	fmt.Println("\nbrush recovery per planted pattern (daily-granularity view):")
	var rrows [][]string
	for p := gen.Pattern(0); p < gen.Pattern(gen.NumPatterns); p++ {
		b, n := groupBrush(view, labels, int(p))
		if n == 0 {
			continue
		}
		ids, rowIdx, err := view.SelectBrush(b)
		if err != nil {
			rrows = append(rrows, []string{p.String(), "0", "-", "-", "-"})
			continue
		}
		prof, err := view.Profile(rowIdx)
		if err != nil {
			return err
		}
		maj, share := majorityPattern(patternCounts(h.ds, ids))
		rrows = append(rrows, []string{
			p.String(),
			fmt.Sprintf("%d", len(ids)),
			fmt.Sprintf("%s (%.0f%%)", maj, 100*share),
			string(prof.Label),
			okMark(maj == p),
		})
	}
	printTable([]string{"planted", "brushed", "majority in brush", "profile label", "majority ok"}, rrows)
	return nil
}

// groupBrush returns a brush around the centroid of the group's embedding
// points (median absolute spread), mimicking how a user lassos a cluster.
func groupBrush(view *core.TypicalView, labels []int, group int) (core.Brush, int) {
	var xs, ys []float64
	for i, l := range labels {
		if l == group && i < len(view.Points) {
			xs = append(xs, view.Points[i][0])
			ys = append(ys, view.Points[i][1])
		}
	}
	if len(xs) == 0 {
		return core.Brush{}, 0
	}
	cx, cy := stat.Median(xs), stat.Median(ys)
	rx := 1.8*stat.MAD(xs) + 0.02
	ry := 1.8*stat.MAD(ys) + 0.02
	return core.Brush{MinX: cx - rx, MinY: cy - ry, MaxX: cx + rx, MaxY: cy + ry}, len(xs)
}

func okMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// runE4 compares the four reduction methods (S1 step 3 extended) on
// label-based scores plus trustworthiness/continuity (Venna & Kaski),
// which need no labels and measure neighborhood preservation directly.
func runE4(h *harness) error {
	ctx := context.Background()
	labels := h.ds.Labels()
	_, _, rows, err := h.an.Engine().MeterMatrixCtx(ctx, query.Selection{}, query.GranDaily, query.AggMean)
	if err != nil {
		return err
	}
	highD, err := reduce.DistanceMatrixCtx(ctx, rows, reduce.MetricPearson, 1)
	if err != nil {
		return err
	}
	highDist := func(i, j int) float64 { return highD[i][j] }
	var table [][]string
	for _, m := range []reduce.Method{reduce.MethodTSNE, reduce.MethodMDS, reduce.MethodSMACOF, reduce.MethodPCA} {
		t0 := time.Now()
		emb, err := reduce.Reduce(ctx, rows, m, reduce.MetricPearson, h.seed, h.an.Engine().Workers())
		if err != nil {
			return err
		}
		emb.Normalize01()
		sil, knn, err := embeddingQuality(emb, labels)
		if err != nil {
			return err
		}
		lowDist := func(i, j int) float64 { return emb.Dist(i, j) }
		tw, err := stat.Trustworthiness(len(emb), 10, highDist, lowDist)
		if err != nil {
			return err
		}
		co, err := stat.Continuity(len(emb), 10, highDist, lowDist)
		if err != nil {
			return err
		}
		table = append(table, []string{
			string(m),
			fmt.Sprintf("%.3f", sil),
			fmt.Sprintf("%.3f", knn),
			fmt.Sprintf("%.3f", tw),
			fmt.Sprintf("%.3f", co),
			time.Since(t0).Round(time.Millisecond).String(),
		})
	}
	printTable([]string{"method", "silhouette", "knn-purity@10", "trustworthiness@10", "continuity@10", "time"}, table)
	fmt.Println("  (trust/continuity are label-free; PCA's are vs the Pearson space)")
	return nil
}

// runE5 is the S1 step-4 baseline: k-means on the raw daily series vs the
// ground truth, and vs a visual-selection proxy (brushing each embedding
// cluster region).
func runE5(h *harness) error {
	ctx := context.Background()
	truth := h.ds.Labels()
	_, _, rows, err := h.an.Engine().MeterMatrixCtx(ctx, query.Selection{}, query.GranDaily, query.AggMean)
	if err != nil {
		return err
	}
	var table [][]string
	for _, k := range []int{5, 6, 8} {
		t0 := time.Now()
		res, err := cluster.KMeans(rows, cluster.KMeansConfig{K: k, Seed: h.seed, NormalizeZ: true})
		if err != nil {
			return err
		}
		ari, err := stat.AdjustedRandIndex(res.Labels, truth)
		if err != nil {
			return err
		}
		nmi, err := stat.NMI(res.Labels, truth)
		if err != nil {
			return err
		}
		pur, err := stat.Purity(res.Labels, truth)
		if err != nil {
			return err
		}
		table = append(table, []string{
			fmt.Sprintf("k-means k=%d", k),
			fmt.Sprintf("%.3f", ari),
			fmt.Sprintf("%.3f", nmi),
			fmt.Sprintf("%.3f", pur),
			time.Since(t0).Round(time.Millisecond).String(),
		})
	}
	// Visual-selection proxy: assign each point the majority pattern of its
	// brushed embedding region (one brush per ground-truth group, as a user
	// exploring the view would).
	view, err := h.an.TypicalPatterns(ctx, core.TypicalConfig{Seed: h.seed})
	if err != nil {
		return err
	}
	visual := make([]int, len(truth))
	for i := range visual {
		visual[i] = -1
	}
	for p := 0; p < gen.NumPatterns; p++ {
		b, n := groupBrush(view, truth, p)
		if n == 0 {
			continue
		}
		_, rowIdx, err := view.SelectBrush(b)
		if err != nil {
			continue
		}
		for _, r := range rowIdx {
			if visual[r] == -1 { // first brush wins, as in sequential exploration
				visual[r] = p
			}
		}
	}
	// Unbrushed points get their nearest brushed neighbor's group.
	for i := range visual {
		if visual[i] != -1 {
			continue
		}
		best, bestD := -1, 1e18
		for j := range visual {
			if visual[j] == -1 || j == i {
				continue
			}
			if d := view.Points.SquaredDist(i, j); d < bestD {
				best, bestD = j, d
			}
		}
		if best >= 0 {
			visual[i] = visual[best]
		} else {
			visual[i] = 0
		}
	}
	ari, _ := stat.AdjustedRandIndex(visual, truth)
	nmi, _ := stat.NMI(visual, truth)
	pur, _ := stat.Purity(visual, truth)
	table = append(table, []string{
		"visual selection (t-SNE brush)",
		fmt.Sprintf("%.3f", ari),
		fmt.Sprintf("%.3f", nmi),
		fmt.Sprintf("%.3f", pur),
		"-",
	})
	// Extension baselines: agglomerative clustering and DBSCAN on the same
	// Pearson distances the visual view uses.
	d, err := reduce.DistanceMatrixCtx(ctx, rows, reduce.MetricPearson, 1)
	if err != nil {
		return err
	}
	t0 := time.Now()
	dg, err := cluster.Agglomerative(d, cluster.LinkageAverage)
	if err != nil {
		return err
	}
	if hl, err := dg.Cut(gen.NumPatterns); err == nil {
		ari, _ := stat.AdjustedRandIndex(hl, truth)
		nmi, _ := stat.NMI(hl, truth)
		pur, _ := stat.Purity(hl, truth)
		table = append(table, []string{
			"agglomerative avg-link k=6 (Pearson)",
			fmt.Sprintf("%.3f", ari), fmt.Sprintf("%.3f", nmi), fmt.Sprintf("%.3f", pur),
			time.Since(t0).Round(time.Millisecond).String(),
		})
	}
	t0 = time.Now()
	if dbl, err := cluster.DBSCAN(d, cluster.DBSCANConfig{Eps: 0.25, MinPts: 5}); err == nil {
		ari, _ := stat.AdjustedRandIndex(dbl, truth)
		nmi, _ := stat.NMI(dbl, truth)
		pur, _ := stat.Purity(dbl, truth)
		table = append(table, []string{
			fmt.Sprintf("DBSCAN eps=0.25 (%d clusters, %d noise)", cluster.ClusterCount(dbl), cluster.NoiseCount(dbl)),
			fmt.Sprintf("%.3f", ari), fmt.Sprintf("%.3f", nmi), fmt.Sprintf("%.3f", pur),
			time.Since(t0).Round(time.Millisecond).String(),
		})
	}
	printTable([]string{"approach", "ARI", "NMI", "purity", "time"}, table)
	fmt.Println("  (paper's claim: visual selection is competitive with k-means while interactive)")
	return nil
}

// runE9 reproduces the S1 "early birds" query: brush the embedding region
// where the 05:00–07:00 morning-peak cohort lives and measure precision
// and recall of the planted early-bird customers.
func runE9(h *harness) error {
	ctx := context.Background()
	view, err := h.an.TypicalPatterns(ctx, core.TypicalConfig{
		Seed:            h.seed,
		UseDailyProfile: true,
	})
	if err != nil {
		return err
	}
	labels := h.ds.Labels()
	b, planted := groupBrush(view, labels, int(gen.PatternEarlyBird))
	if planted == 0 {
		return fmt.Errorf("no early-bird customers in dataset")
	}
	ids, rowIdx, err := view.SelectBrush(b)
	if err != nil {
		return err
	}
	prof, err := view.Profile(rowIdx)
	if err != nil {
		return err
	}
	counts := patternCounts(h.ds, ids)
	tp := counts[gen.PatternEarlyBird]
	precision := float64(tp) / float64(len(ids))
	recall := float64(tp) / float64(planted)
	peak := argmaxF(prof.Mean)
	printTable(
		[]string{"metric", "value"},
		[][]string{
			{"planted early birds", fmt.Sprintf("%d", planted)},
			{"brushed points", fmt.Sprintf("%d", len(ids))},
			{"precision", fmt.Sprintf("%.3f", precision)},
			{"recall", fmt.Sprintf("%.3f", recall)},
			{"profile peak hour", fmt.Sprintf("%02d:00", peak)},
			{"profile label", string(prof.Label)},
			{"peak in 05-07 window", okMark(peak >= 5 && peak <= 7)},
		})
	return nil
}

func argmaxF(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
