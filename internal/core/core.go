// Package core is VAP's primary contribution layer: the two pattern
// recognition models of paper §2.1 wired to the data layer —
//
//   - TypicalPatterns reduces the selected meters' high-dimensional
//     consumption series to an interactive 2-D view (t-SNE/MDS with
//     Pearson distance) in which users brush point groups to identify
//     typical patterns (view C -> view B);
//   - ShiftPatternsCtx computes the Eq. 3/Eq. 4 demand-shift flow maps
//     between two time windows at any of the paper's seven temporal
//     granularities (view A).
//
// The package also provides the stateless brush over a reduced view
// (Brush, TypicalView.SelectBrush, TypicalView.Profile) and a heuristic
// pattern labeller that names brushed groups after the paper's five
// canonical profiles.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"vap/internal/exec"
	"vap/internal/flow"
	"vap/internal/geo"
	"vap/internal/govern"
	"vap/internal/kde"
	"vap/internal/query"
	"vap/internal/reduce"
	"vap/internal/stat"
	"vap/internal/store"
	"vap/internal/vql"
)

// Options tunes the analyzer's execution engine.
type Options struct {
	// Workers is the parallel fan-out width for the expensive kernels
	// (distance matrix, KDE grid, per-meter decode). <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// Gov is the admission controller every VQL statement and analysis
	// request passes through (nil selects one with govern.Config defaults).
	Gov *govern.Controller
}

// Analyzer is the façade over the data layer the presentation layer talks
// to. It is safe for concurrent use: every request is estimated and
// admitted by the governor, results are memoized in a versioned cache
// (keyed by the resolved meters' version fingerprint plus the plan, window
// and a canonical config), concurrent identical requests share one
// computation, and any store mutation precisely invalidates stale entries.
type Analyzer struct {
	eng   *query.Engine
	ex    *exec.Engine
	gov   *govern.Controller
	plans planCache
}

// NewAnalyzer wraps a store with default execution options.
func NewAnalyzer(st *store.Store) *Analyzer {
	return NewAnalyzerOpts(st, Options{})
}

// NewAnalyzerOpts wraps a store with explicit execution options.
func NewAnalyzerOpts(st *store.Store, opts Options) *Analyzer {
	ex := exec.New(exec.Options{Workers: opts.Workers})
	gov := opts.Gov
	if gov == nil {
		gov = govern.New(govern.Config{})
	}
	return &Analyzer{
		eng:   query.NewEngineWorkers(st, ex.Workers()),
		ex:    ex,
		gov:   gov,
		plans: planCache{plans: make(map[string]*vql.Plan)},
	}
}

// Engine exposes the underlying query engine.
func (a *Analyzer) Engine() *query.Engine { return a.eng }

// Store exposes the underlying store.
func (a *Analyzer) Store() *store.Store { return a.eng.Store() }

// Exec exposes the execution engine (cache introspection, invalidation).
func (a *Analyzer) Exec() *exec.Engine { return a.ex }

// ExecStats reports cache and deduplication counters.
func (a *Analyzer) ExecStats() exec.Stats { return a.ex.Stats() }

// Gov exposes the admission controller (governance stats, front-door
// admission for ingest).
func (a *Analyzer) Gov() *govern.Controller { return a.gov }

// job is one request as the lifecycle sees it, over meters its caller
// resolved once. plan is the VQL statement each of its scans is equivalent
// to; mem is what the post-step allocates beyond the scans, bucketMem more
// per bucket of each scan (the feature matrix's columns), and squareMem
// more per bucket squared (PCA's covariance matrix).
type job struct {
	kind                      string // cache namespace
	plan                      *vql.Plan
	ids                       []int64
	mem, bucketMem, squareMem int64
	config                    []any // the post-step's knobs, keyed after the windows
}

// run is the one request lifecycle of VQL and the paper's views alike. It
// keys the request by its meters' version fingerprint, plan, windows and
// config, and looks the key up. A miss estimates the scan of each resolved
// [from, to) window with the planner's cost model, admits the whole request
// under the context's tenant before the exec engine sees it (a rejected or
// shed request leaves no cache or singleflight state), and memoizes compute
// under a key taken after admission, beside the request it was admitted
// as. A hit is admitted as that request, under its own tenant, and returns
// the cached value: the estimate reads only the plan, the meters, the
// windows and the meters' stats, the key holds the first three and the
// versions, and equal versions mean equal stats (store.Series.ver), so the
// miss's request is the one the hit would estimate. The grant rides the
// context: the executor's batch loops pace against it.
func (a *Analyzer) run(ctx context.Context, j job, windows [][2]int64, compute func(context.Context) (any, error)) (any, error) {
	val, note, hit := a.ex.Lookup(a.key(j, windows))
	req, known := note.(govern.Request)
	if !known {
		req = govern.Request{EstMem: j.mem}
		for _, w := range windows {
			cost := vql.EstimateScan(a.eng, j.plan, j.ids, w[0], w[1])
			if cost.Refused != nil {
				return nil, cost.Refused
			}
			req.EstSamples += cost.EstSamples
			b := int64(cost.Buckets)
			req.EstMem += cost.EstMemBytes() + b*j.bucketMem + b*b*j.squareMem
		}
	}
	req.Tenant = govern.TenantFrom(ctx)
	grant, err := a.gov.Admit(ctx, req)
	if err != nil {
		return nil, err
	}
	defer grant.Release()
	if hit {
		return val, nil
	}
	return a.ex.DoNote(govern.WithGrant(ctx, grant), a.key(j, windows), req, compute)
}

// key is the memo key of j over windows as the store stands now. The ids
// enter the hash as well as the version, so that the cache's one entry a
// task (exec) is one a selection; they are mixed in after KeyOf, which
// would box the slice.
func (a *Analyzer) key(j job, windows [][2]int64) exec.Key {
	parts := make([]any, 0, 16)
	parts = append(parts, j.plan.Fingerprint())
	for _, w := range windows {
		parts = append(parts, w[0], w[1])
	}
	parts = append(parts, j.config...)
	k := exec.KeyOf(a.Store().Fingerprint(j.ids), j.kind, parts...)
	for _, id := range j.ids {
		k.Hash = (k.Hash ^ uint64(id)) * 1099511628211 // FNV-1a's prime, a word at a time
	}
	return k
}

// scanPlan compiles the VQL statement an analysis scan is equivalent to
// (TestEngineMatchesVQL): fn of each meter's readings, per g bucket unless
// g is empty. Both come from requests, so each is checked before it is
// spliced into the statement.
func scanPlan(fn query.AggFunc, g query.Granularity) (*vql.Plan, error) {
	if err := fn.Valid(); err != nil {
		return nil, err
	}
	src := "SELECT meter, " + string(fn) + "(value) FROM meters GROUP BY meter"
	if g != "" {
		if _, bad := query.ParseGranularity(string(g)); bad != nil {
			return nil, fmt.Errorf("%w: unknown granularity %q", query.ErrInput, g)
		}
		src = fmt.Sprintf("SELECT meter, bucket('%s'), %s(value) FROM meters GROUP BY meter, bucket('%s')", g, fn, g)
	}
	q, err := vql.Parse(src)
	if err != nil {
		return nil, err
	}
	return vql.Compile(q)
}

// windowPlan is every flow and density scan: one fold per meter of one
// window.
var windowPlan, _ = scanPlan(query.AggMean, "")

// fieldBytes is one cols x rows KDE grid, saturating: the request chooses
// the grid.
func fieldBytes(cols, rows int) int64 { return int64(min(8*float64(cols)*float64(rows), 1<<60)) }

// --- Typical pattern discovery -----------------------------------------

// TypicalConfig parameterizes a typical-pattern analysis run.
type TypicalConfig struct {
	Selection query.Selection
	// Granularity of the feature vectors, each bucket a mean; daily gives
	// 365-dim yearly shapes (captures the bimodal winter/summer
	// signature), hourly x day-profile captures diurnal habits. Default
	// daily.
	Granularity query.Granularity
	Method      reduce.Method // default t-SNE
	Metric      reduce.Metric // default Pearson (the paper's choice)
	Seed        int64
	// UseDailyProfile folds the series into a 24-dim mean day profile
	// instead of the full-resolution vector (the "early birds" query
	// operates on this).
	UseDailyProfile bool
}

func (c *TypicalConfig) defaults() {
	if c.Granularity == "" {
		c.Granularity = query.GranDaily
	}
	if c.Method == "" {
		c.Method = reduce.MethodTSNE
	}
	if c.Metric == "" {
		c.Metric = reduce.MetricPearson
	}
}

// TypicalView is the view-C data: one 2-D point per meter, normalized to
// the unit square, aligned with MeterIDs.
type TypicalView struct {
	MeterIDs []int64          `json:"meter_ids"`
	Points   reduce.Embedding `json:"points"`
	Method   reduce.Method    `json:"method"`
	Metric   reduce.Metric    `json:"metric"`
	FeatDim  int              `json:"feature_dim"`
	rows     [][]float64      // retained for selection profiling
	times    []int64
	gran     query.Granularity
}

// CacheBytes is the view's heap footprint from its lengths (exec.Sizer):
// ids, points, the retained feature rows and their bucket starts.
func (v *TypicalView) CacheBytes() int64 {
	n := int64(len(v.rows))
	return 8*int64(len(v.MeterIDs)) + 16*int64(len(v.Points)) + n*(24+8*int64(v.FeatDim)) + 8*int64(len(v.times))
}

// TypicalPatterns runs the pipeline: select meters, build the feature
// matrix (GROUP BY meter, bucket(g); hourly means for the daily profiles),
// reduce to 2-D. Results are memoized against the version fingerprint of
// exactly the meters the selection resolves to, so repeated brushes over an
// unchanged selection return the same *TypicalView without re-running t-SNE
// even while other meters stream in.
func (a *Analyzer) TypicalPatterns(ctx context.Context, cfg TypicalConfig) (*TypicalView, error) {
	cfg.defaults()
	ids, err := a.eng.ResolveMeters(cfg.Selection)
	if err != nil {
		return nil, err
	}
	// The effective window enters the key resolved, not as the literal
	// From/To: a zero window means "full data extent", which moves when
	// any meter — inside the selection or not — receives newer samples,
	// changing the bucket axis the feature matrix is built on.
	from, to, err := a.eng.TimeWindow(cfg.Selection)
	if err != nil {
		return nil, err
	}
	n := int64(len(ids))
	// The reducer's peak: t-SNE and MDS hold the n x n distance matrix and
	// P (MDS: B) at once; t-SNE's pair tiles add their partials, four
	// float64 slices per tile, 32 bytes for each of at most n*n/128 + n row
	// shares, and each iteration's copy of the coordinates, 16 bytes a
	// point.
	g, mem, bucketMem, squareMem := cfg.Granularity, 16*n*n+n*n/4+48*n, 8*n, int64(0)
	if cfg.UseDailyProfile {
		g, mem, bucketMem = query.GranHourly, mem+24*8*n, 0
	} else if cfg.Method == reduce.MethodPCA {
		squareMem = 8 // the covariance of the feature columns
	}
	p, err := scanPlan(query.AggMean, g)
	if err != nil {
		return nil, err
	}
	cfg.Selection = query.Selection{MeterIDs: ids, From: from, To: to}
	v, err := a.run(ctx, job{
		kind: "typical", plan: p, ids: ids, mem: mem, bucketMem: bucketMem, squareMem: squareMem,
		config: []any{cfg.Method, cfg.Metric, cfg.Seed, cfg.UseDailyProfile},
	}, [][2]int64{{from, to}}, func(ctx context.Context) (any, error) {
		return a.computeTypical(ctx, cfg)
	})
	if err != nil {
		return nil, err
	}
	return v.(*TypicalView), nil
}

// computeTypical is the uncached pipeline body over a resolved selection.
func (a *Analyzer) computeTypical(ctx context.Context, cfg TypicalConfig) (*TypicalView, error) {
	var (
		ids   []int64
		times []int64
		rows  [][]float64
		err   error
	)
	if cfg.UseDailyProfile {
		// The 24-hour profiles are the features; of the bucketed matrix
		// only the meter set would be used, and that is resolved already.
		ids = cfg.Selection.MeterIDs
		rows, err = a.eng.DayProfilesCtx(ctx, ids, cfg.Selection.From, cfg.Selection.To)
	} else {
		ids, times, rows, err = a.eng.MeterMatrixCtx(ctx, cfg.Selection, cfg.Granularity, query.AggMean)
	}
	if err != nil {
		return nil, err
	}
	emb, err := reduce.Reduce(ctx, rows, cfg.Method, cfg.Metric, cfg.Seed, a.eng.Workers())
	if err != nil {
		return nil, err
	}
	emb.Normalize01()
	dim := 0
	if len(rows) > 0 {
		dim = len(rows[0])
	}
	return &TypicalView{
		MeterIDs: ids, Points: emb, Method: cfg.Method, Metric: cfg.Metric,
		FeatDim: dim, rows: rows, times: times, gran: cfg.Granularity,
	}, nil
}

// buckets is a series result as the cache holds it (exec.Sizer).
type buckets []query.Bucket

// CacheBytes is 24 bytes a bucket.
func (b buckets) CacheBytes() int64 { return 24 * int64(len(b)) }

// SelectionSeries is view B: the mean of the selection's meters per g
// bucket (Engine.AggregateSelection), estimated, admitted and memoized like
// the other views. It averages a matrix of 8 bytes per meter per bucket
// into one 24-byte bucket each.
func (a *Analyzer) SelectionSeries(ctx context.Context, sel query.Selection, g query.Granularity) ([]query.Bucket, error) {
	ids, err := a.eng.ResolveMeters(sel)
	if err != nil {
		return nil, err
	}
	from, to, err := a.eng.TimeWindow(sel)
	if err != nil {
		return nil, err
	}
	p, err := scanPlan(query.AggMean, g)
	if err != nil {
		return nil, err
	}
	sel = query.Selection{MeterIDs: ids, From: from, To: to}
	v, err := a.run(ctx, job{kind: "series", plan: p, ids: ids, bucketMem: 8*int64(len(ids)) + 24},
		[][2]int64{{from, to}}, func(ctx context.Context) (any, error) {
			bs, err := a.eng.AggregateSelection(ctx, sel, g, query.AggMean)
			return buckets(bs), err
		})
	if err != nil {
		return nil, err
	}
	return v.(buckets), nil
}

// MeterSeries is one meter's fn per g bucket over sel's window
// (Engine.MeterSeriesCtx), estimated, admitted and memoized like the other
// views: 24 bytes a bucket.
func (a *Analyzer) MeterSeries(ctx context.Context, id int64, sel query.Selection, g query.Granularity, fn query.AggFunc) ([]query.Bucket, error) {
	p, err := scanPlan(fn, g)
	if err != nil {
		return nil, err
	}
	from, to, err := a.eng.TimeWindow(sel)
	if err != nil {
		return nil, err
	}
	v, err := a.run(ctx, job{kind: "meter-series", plan: p, ids: []int64{id}, bucketMem: 24},
		[][2]int64{{from, to}}, func(ctx context.Context) (any, error) {
			bs, err := a.eng.MeterSeriesCtx(ctx, id, query.Selection{From: from, To: to}, g, fn)
			return buckets(bs), err
		})
	if err != nil {
		return nil, err
	}
	return v.(buckets), nil
}

// --- Brushing / selection ------------------------------------------------

// Brush is a rectangular selection in the normalized embedding space of
// view C (the click-and-drag interaction of the demo).
type Brush struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether the point lies in the brush.
func (b Brush) Contains(p [2]float64) bool {
	return p[0] >= b.MinX && p[0] <= b.MaxX && p[1] >= b.MinY && p[1] <= b.MaxY
}

// ErrEmptyBrush is returned when a brush selects no points.
var ErrEmptyBrush = errors.New("core: brush selects no points")

// SelectBrush returns the meter IDs whose embedding points fall inside the
// brush, together with their row indexes in the view.
func (v *TypicalView) SelectBrush(b Brush) (ids []int64, rowIdx []int, err error) {
	for i, p := range v.Points {
		if b.Contains(p) {
			ids = append(ids, v.MeterIDs[i])
			rowIdx = append(rowIdx, i)
		}
	}
	if len(ids) == 0 {
		return nil, nil, ErrEmptyBrush
	}
	return ids, rowIdx, nil
}

// GroupProfile is view B's content: the aggregated consumption pattern of a
// brushed group plus the heuristic pattern label.
type GroupProfile struct {
	MeterIDs []int64      `json:"meter_ids"`
	Mean     []float64    `json:"mean"`  // mean feature vector of the group
	Times    []int64      `json:"times"` // bucket starts (nil for day profiles)
	Label    PatternLabel `json:"label"`
}

// Profile aggregates the brushed rows into the group's mean pattern and
// labels it.
func (v *TypicalView) Profile(rowIdx []int) (*GroupProfile, error) {
	if len(rowIdx) == 0 {
		return nil, ErrEmptyBrush
	}
	dim := len(v.rows[rowIdx[0]])
	mean := make([]float64, dim)
	ids := make([]int64, 0, len(rowIdx))
	for _, r := range rowIdx {
		ids = append(ids, v.MeterIDs[r])
		for j, x := range v.rows[r] {
			mean[j] += x
		}
	}
	for j := range mean {
		mean[j] /= float64(len(rowIdx))
	}
	return &GroupProfile{
		MeterIDs: ids, Mean: mean, Times: v.times,
		Label: ClassifyProfile(mean, v.gran),
	}, nil
}

// --- Pattern labelling ----------------------------------------------------

// PatternLabel names a profile after the paper's five canonical patterns.
type PatternLabel string

// The five Figure 3 labels plus the S1 early-bird cohort.
const (
	LabelBimodal      PatternLabel = "bimodal"
	LabelEnergySaving PatternLabel = "energy-saving"
	LabelIdle         PatternLabel = "idle"
	LabelConstantHigh PatternLabel = "constant-high"
	LabelSuspicious   PatternLabel = "suspicious"
	LabelEarlyBird    PatternLabel = "early-bird"
	LabelUnknown      PatternLabel = "unknown"
)

// ClassifyProfile heuristically labels a mean consumption profile. The
// rules mirror how the paper's authors interpret the brushed groups:
// level (idle vs constant-high), variability (suspicious), seasonal
// bimodality (winter+summer humps), and morning-peak timing (early birds).
func ClassifyProfile(mean []float64, gran query.Granularity) PatternLabel {
	if len(mean) == 0 {
		return LabelUnknown
	}
	level := stat.Mean(mean)
	sd := stat.StdDev(mean)
	switch {
	case level < 0.12:
		return LabelIdle
	case level > 2.2 && sd/math.Max(level, 1e-12) < 0.25:
		return LabelConstantHigh
	}
	cv := sd / math.Max(level, 1e-12)
	if len(mean) == 24 {
		// Day profile: peak-hour logic.
		peak := argmax(mean)
		switch {
		case peak >= 5 && peak <= 7:
			return LabelEarlyBird
		case cv > 1.0:
			return LabelSuspicious
		case level < 0.45:
			return LabelEnergySaving
		default:
			return LabelBimodal // evening-peaked household default
		}
	}
	// Long profile (daily over a year): check seasonal bimodality by
	// comparing winter+summer mass to spring+autumn mass.
	if gran == query.GranDaily && len(mean) >= 360 {
		winterSummer, springAutumn := 0.0, 0.0
		var wsN, saN int
		for d, v := range mean {
			doy := d % 365
			switch {
			case doy < 60 || doy >= 335 || (doy >= 152 && doy < 244):
				winterSummer += v
				wsN++
			default:
				springAutumn += v
				saN++
			}
		}
		if wsN > 0 && saN > 0 {
			ratio := (winterSummer / float64(wsN)) / math.Max(springAutumn/float64(saN), 1e-12)
			if ratio > 1.25 {
				return LabelBimodal
			}
		}
	}
	switch {
	case cv > 0.8:
		return LabelSuspicious
	case level < 0.45:
		return LabelEnergySaving
	default:
		return LabelUnknown
	}
}

func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// --- Shift pattern discovery ----------------------------------------------

// ShiftConfig parameterizes a shift analysis between two windows.
type ShiftConfig struct {
	Selection query.Selection
	// T1/T2 are the two bucket anchors; each window is
	// [Granularity.Truncate(T), Granularity.Next(T)), 4hourly when unset.
	T1, T2      int64
	Granularity query.Granularity
	// IntensityQuantile keeps only meters at or above this total-consumption
	// quantile (0 disables; S2 sweeps 0.30..0.90).
	IntensityQuantile float64
	// KDE controls; both maps share one Silverman bandwidth.
	GridCols, GridRows int
	Kernel             kde.Kernel
	// Flow extraction.
	OD ODMode
}

// ODMode selects the flow representation.
type ODMode string

// Flow representations.
const (
	ODGradient ODMode = "gradient"
	ODMatching ODMode = "matching"
)

// ShiftResult is view A's analytical payload.
type ShiftResult struct {
	Box      geo.BBox      `json:"box"`
	T1Window [2]int64      `json:"t1_window"`
	T2Window [2]int64      `json:"t2_window"`
	Density1 *kde.Field    `json:"-"`
	Density2 *kde.Field    `json:"-"`
	Shift    *kde.Field    `json:"-"`
	Flows    []flow.Vector `json:"flows"`
	Summary  flow.Summary  `json:"summary"`
	Meters   int           `json:"meters"`
}

// CacheBytes is the result's heap footprint (exec.Sizer): its three
// fields and its flows.
func (r *ShiftResult) CacheBytes() int64 {
	return r.Density1.CacheBytes() + r.Density2.CacheBytes() + r.Shift.CacheBytes() + 48*int64(len(r.Flows))
}

// ErrSameBucket is wrapped by ShiftPatternsCtx when the granularity is so
// coarse that both anchors land in one bucket: there is no shift to map.
var ErrSameBucket = errors.New("no shift within one bucket")

// ShiftPatternsCtx computes the Figure 2 pipeline: two density-strength maps
// (Eq. 3) and their difference (Eq. 4), plus renderable flows. It stops on
// ctx and runs under the same admission and versioned memoization as
// TypicalPatterns: anchors are canonicalized to their bucket starts, so any
// two requests landing in the same (T1, T2) buckets on unchanged data share
// one cached flow map. An unknown kernel or OD mode is an input error
// before admission.
func (a *Analyzer) ShiftPatternsCtx(ctx context.Context, cfg ShiftConfig) (*ShiftResult, error) {
	if cfg.Granularity == "" {
		cfg.Granularity = query.Gran4Hourly
	}
	// Canonicalize the grid and kernel kde would default anyway, so
	// equivalent requests (an explicit 96x96 grid, an unset one) share one
	// cached flow map.
	k := kde.Config{Cols: cfg.GridCols, Rows: cfg.GridRows, Kernel: cfg.Kernel}.WithDefaults()
	cfg.GridCols, cfg.GridRows, cfg.Kernel = k.Cols, k.Rows, k.Kernel
	if err := k.Kernel.Valid(); err != nil {
		return nil, err
	}
	if cfg.OD == "" {
		cfg.OD = ODMatching
	} else if cfg.OD != ODMatching && cfg.OD != ODGradient {
		return nil, fmt.Errorf("%w: unknown od mode %q", query.ErrInput, cfg.OD)
	}
	g := cfg.Granularity
	t1a, t1b := g.Truncate(cfg.T1), g.Next(cfg.T1)
	t2a, t2b := g.Truncate(cfg.T2), g.Next(cfg.T2)
	if t1a == t2a {
		return nil, fmt.Errorf("core: T1 and T2 fall in the same %s bucket: %w", g, ErrSameBucket)
	}
	ids, err := a.eng.ResolveMeters(cfg.Selection)
	if err != nil {
		return nil, err
	}
	windows := [][2]int64{{t1a, t1b}, {t2a, t2b}}
	sel := query.Selection{MeterIDs: ids}
	if cfg.IntensityQuantile > 0 {
		// The intensity band ranks the meters over the selection's window.
		if sel.From, sel.To, err = a.eng.TimeWindow(cfg.Selection); err != nil {
			return nil, err
		}
		windows = append(windows, [2]int64{sel.From, sel.To})
	}
	cfg.Selection = sel
	// The study-area box is derived from the whole catalog, not the
	// selection, so it enters the key explicitly: a meter registered
	// outside the selection that widens the box must still miss.
	v, err := a.run(ctx, job{
		kind: "shift", plan: windowPlan, ids: ids, mem: 3 * fieldBytes(cfg.GridCols, cfg.GridRows),
		config: []any{g, cfg.IntensityQuantile, cfg.GridCols, cfg.GridRows, cfg.Kernel, cfg.OD, a.Store().Catalog().Bounds()},
	}, windows, func(ctx context.Context) (any, error) {
		return a.computeShift(ctx, cfg, t1a, t1b, t2a, t2b)
	})
	if err != nil {
		return nil, err
	}
	return v.(*ShiftResult), nil
}

// computeShift is the uncached pipeline body over a resolved selection. The
// two density maps are evaluated with the engine's parallel KDE path.
func (a *Analyzer) computeShift(ctx context.Context, cfg ShiftConfig, t1a, t1b, t2a, t2b int64) (*ShiftResult, error) {
	sel := cfg.Selection
	if cfg.IntensityQuantile > 0 {
		ids, err := a.eng.IntensityBandCtx(ctx, sel, cfg.IntensityQuantile)
		if err != nil {
			return nil, err
		}
		sel.MeterIDs = ids
	}
	pts1, err := a.demand(ctx, sel, t1a, t1b)
	if err != nil {
		return nil, err
	}
	pts2, err := a.demand(ctx, sel, t2a, t2b)
	if err != nil {
		return nil, err
	}
	box := a.Store().Catalog().Bounds().Buffer(0.002)
	// One shared bandwidth, so the two maps are comparable.
	kcfg := kde.Config{
		Cols: cfg.GridCols, Rows: cfg.GridRows, Kernel: cfg.Kernel, Workers: a.ex.Workers(),
		Bandwidth: kde.SilvermanBandwidth(append(append([]kde.WeightedPoint{}, pts1...), pts2...)),
	}
	d1, err := kde.EstimateCtx(ctx, pts1, box, kcfg)
	if err != nil {
		return nil, err
	}
	d2, err := kde.EstimateCtx(ctx, pts2, box, kcfg)
	if err != nil {
		return nil, err
	}
	shift, err := flow.Shift(d1, d2)
	if err != nil {
		return nil, err
	}
	var vectors []flow.Vector
	if cfg.OD == ODGradient {
		vectors = flow.GradientField(shift, 6, 0.25)
	} else {
		vectors = flow.ExtractOD(shift, flow.ODConfig{})
	}
	return &ShiftResult{
		Box:      box,
		T1Window: [2]int64{t1a, t1b},
		T2Window: [2]int64{t2a, t2b},
		Density1: d1, Density2: d2, Shift: shift,
		Flows:   vectors,
		Summary: flow.Summarize(shift),
		Meters:  len(pts1),
	}, nil
}

// DemandDensity returns the Eq. 3 density map of the selection's demand in
// [from, to) over the catalog's study area — the standalone heat map of
// view A. A zero from or to is the data's own edge. It carries the same
// admission and versioned-memoization contract as the pattern entry
// points, so repeated renders of an unchanged dataset reuse the grid.
func (a *Analyzer) DemandDensity(ctx context.Context, sel query.Selection, from, to int64, kcfg kde.Config) (*kde.Field, error) {
	// Canonicalize the knobs kde would default anyway, and the window, so
	// equivalent requests share one cache entry.
	kcfg = kcfg.WithDefaults()
	kcfg.Workers = a.ex.Workers()
	from, to, err := a.eng.TimeWindow(query.Selection{From: from, To: to})
	if err != nil {
		return nil, err
	}
	ids, err := a.eng.ResolveMeters(sel)
	if err != nil {
		return nil, err
	}
	// Like ShiftPatternsCtx, the catalog-wide study-area box is a real
	// input the fingerprint does not cover.
	v, err := a.run(ctx, job{
		kind: "density", plan: windowPlan, ids: ids, mem: fieldBytes(kcfg.Cols, kcfg.Rows),
		config: []any{kcfg.Cols, kcfg.Rows, kcfg.Bandwidth, kcfg.Kernel, kcfg.Exact, a.Store().Catalog().Bounds()},
	}, [][2]int64{{from, to}}, func(ctx context.Context) (any, error) {
		dps, err := a.eng.DemandSnapshotCtx(ctx, query.Selection{MeterIDs: ids}, from, to)
		if err != nil {
			return nil, err
		}
		pts := make([]kde.WeightedPoint, len(dps))
		for i, d := range dps {
			pts[i] = kde.WeightedPoint{Loc: d.Loc, Weight: d.Weight}
		}
		box := a.Store().Catalog().Bounds().Buffer(0.002)
		return kde.EstimateCtx(ctx, pts, box, kcfg)
	})
	if err != nil {
		return nil, err
	}
	return v.(*kde.Field), nil
}

// demand returns a snapshot whose weights are rescaled to unit total mass.
// DemandSnapshotCtx normalizes each window's weights into [0,1] independently,
// which is right for a standalone heat map but makes two windows'
// densities incomparable in Eq. 4 (one window's field can dominate the
// other everywhere, leaving the shift one-signed). Fixing both snapshots
// to the same total mass makes the difference a pure redistribution
// signal — where high demand moved, the Figure 2 semantics.
func (a *Analyzer) demand(ctx context.Context, sel query.Selection, from, to int64) ([]kde.WeightedPoint, error) {
	dps, err := a.eng.DemandSnapshotCtx(ctx, sel, from, to)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, d := range dps {
		total += d.Weight
	}
	out := make([]kde.WeightedPoint, len(dps))
	for i, d := range dps {
		w := d.Weight
		if total > 0 {
			w /= total
		}
		out[i] = kde.WeightedPoint{Loc: d.Loc, Weight: w}
	}
	return out, nil
}

// GranularitySweep runs ShiftPatternsCtx for every granularity (S2 step 1) at
// the same anchor instants and returns the shift summaries keyed by
// granularity, in AllGranularities order.
func (a *Analyzer) GranularitySweep(ctx context.Context, base ShiftConfig) ([]query.Granularity, []flow.Summary, error) {
	var gs []query.Granularity
	var sums []flow.Summary
	for _, g := range query.AllGranularities {
		cfg := base
		cfg.Granularity = g
		res, err := a.ShiftPatternsCtx(ctx, cfg)
		if err != nil {
			// Coarse granularities can merge T1 and T2 into one bucket;
			// that is a meaningful sensitivity result, not a failure.
			if errors.Is(err, ErrSameBucket) {
				gs = append(gs, g)
				sums = append(sums, flow.Summary{})
				continue
			}
			return nil, nil, err
		}
		gs = append(gs, g)
		sums = append(sums, res.Summary)
	}
	return gs, sums, nil
}

// IntensitySweep runs ShiftPatternsCtx over intensity quantiles (S2 step 2).
func (a *Analyzer) IntensitySweep(ctx context.Context, base ShiftConfig, quantiles []float64) ([]flow.Summary, error) {
	out := make([]flow.Summary, 0, len(quantiles))
	for _, q := range quantiles {
		cfg := base
		cfg.IntensityQuantile = q
		res, err := a.ShiftPatternsCtx(ctx, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, res.Summary)
	}
	return out, nil
}
