// Package kde implements the weighted two-dimensional kernel density
// estimation of the paper's Eq. 3:
//
//	f(x) = (1/n) * sum_i c_i * K_h(x - x_i)
//
// over a raster grid covering the study area. The Gaussian kernel is the
// paper's default ("it can cover a larger spatial area ... and has a lower
// computational complexity"); Epanechnikov and Uniform kernels are provided
// for the ablation.
//
// A point's contribution to the raster is its stamp: the kernel over the
// point's footprint (5 bandwidths for the Gaussian, whose tail beyond is
// below 4e-6 of the peak; one bandwidth for the compact kernels; the whole
// raster under Config.Exact). A stamp is evaluated per axis, not per cell:
// the Gaussian factors exactly as exp(-dx²/2)·exp(-dy²/2), so w×h cells
// cost w+h exponentials and w·h multiply-adds. The batch EstimateCtx and
// the live stream.Tracker (through Field.Stamp) run the same stamp loop.
package kde

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"

	"vap/internal/exec"
	"vap/internal/geo"
)

// Kernel selects the smoothing kernel K.
type Kernel string

// Supported kernels.
const (
	KernelGaussian     Kernel = "gaussian"
	KernelEpanechnikov Kernel = "epanechnikov"
	KernelUniform      Kernel = "uniform"
)

// ErrInput flags invalid KDE input.
var ErrInput = errors.New("kde: invalid input")

// WeightedPoint is one consumption-weighted meter location (x_i, c_i).
type WeightedPoint struct {
	Loc    geo.Point
	Weight float64
}

// Config controls a density evaluation.
type Config struct {
	// Grid resolution.
	Cols, Rows int
	// Bandwidth in degrees. Zero selects Silverman's rule of thumb over
	// the point set.
	Bandwidth float64
	Kernel    Kernel
	// Exact disables the truncated-support fast path (used by the E2b
	// ablation; truncation error is below ~1e-5 of the peak density).
	Exact bool
	// Workers fans the grid evaluation out across row bands: 0 selects
	// runtime.GOMAXPROCS(0), 1 runs the bands in turn on the caller. Bands
	// are disjoint raster rows and every cell adds its points in input
	// order, so no lock is needed and every Workers value gives the same bits.
	Workers int
}

// WithDefaults returns c with an unset grid (96x96) and kernel (Gaussian)
// filled in: the form EstimateCtx evaluates, and the form callers that
// memoize fields key on, so equivalent requests share one entry.
func (c Config) WithDefaults() Config {
	if c.Cols <= 0 {
		c.Cols = 96
	}
	if c.Rows <= 0 {
		c.Rows = 96
	}
	if c.Kernel == "" {
		c.Kernel = KernelGaussian
	}
	return c
}

// Valid reports an unknown kernel; "" is WithDefaults' Gaussian.
func (k Kernel) Valid() error {
	if k != "" && k != KernelGaussian && k != KernelEpanechnikov && k != KernelUniform {
		return fmt.Errorf("%w: unknown kernel %q", ErrInput, k)
	}
	return nil
}

// Field is a scalar raster over a geographic box: Values[row*Cols+col],
// row 0 at the box's south edge.
type Field struct {
	Box        geo.BBox
	Cols, Rows int
	Values     []float64
	Bandwidth  float64
	Kernel     Kernel
}

// CacheBytes is the field's heap footprint (exec.Sizer): its values and
// the struct.
func (f *Field) CacheBytes() int64 { return 8*int64(len(f.Values)) + 96 }

// At returns the value at (col, row).
func (f *Field) At(col, row int) float64 { return f.Values[row*f.Cols+col] }

// CellSize returns the width and height of one cell in degrees.
func (f *Field) CellSize() (w, h float64) {
	return (f.Box.Max.Lon - f.Box.Min.Lon) / float64(f.Cols),
		(f.Box.Max.Lat - f.Box.Min.Lat) / float64(f.Rows)
}

// CellCenter returns the geographic center of cell (col, row).
func (f *Field) CellCenter(col, row int) geo.Point {
	w, h := f.CellSize()
	return geo.Point{
		Lon: f.Box.Min.Lon + (float64(col)+0.5)*w,
		Lat: f.Box.Min.Lat + (float64(row)+0.5)*h,
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MinMax returns the extrema of the field.
func (f *Field) MinMax() (lo, hi float64) {
	if len(f.Values) == 0 {
		return 0, 0
	}
	lo, hi = f.Values[0], f.Values[0]
	for _, v := range f.Values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Sub returns f - g as a new field (the Shift operator of Eq. 4).
// The fields must share geometry.
func (f *Field) Sub(g *Field) (*Field, error) {
	if f.Cols != g.Cols || f.Rows != g.Rows || f.Box != g.Box {
		return nil, fmt.Errorf("kde: field geometry mismatch")
	}
	out := &Field{Box: f.Box, Cols: f.Cols, Rows: f.Rows,
		Values: make([]float64, len(f.Values)), Bandwidth: f.Bandwidth, Kernel: f.Kernel}
	for i := range out.Values {
		out.Values[i] = f.Values[i] - g.Values[i]
	}
	return out, nil
}

// L1Norm returns sum |v| * cellArea.
func (f *Field) L1Norm() float64 {
	w, h := f.CellSize()
	s := 0.0
	for _, v := range f.Values {
		s += math.Abs(v)
	}
	return s * w * h
}

// SilvermanBandwidth returns the rule-of-thumb bandwidth (in degrees) for
// the point set: 1.06 * min(std, IQR/1.34) * n^(-1/5), averaged over the
// two axes.
func SilvermanBandwidth(pts []WeightedPoint) float64 {
	n := len(pts)
	if n < 2 {
		return 0.01
	}
	lons := make([]float64, n)
	lats := make([]float64, n)
	for i, p := range pts {
		lons[i] = p.Loc.Lon
		lats[i] = p.Loc.Lat
	}
	h := (silverman1D(lons) + silverman1D(lats)) / 2
	if h <= 0 {
		return 0.01
	}
	return h
}

// silverman1D sorts xs in place.
func silverman1D(xs []float64) float64 {
	n := float64(len(xs))
	mu := 0.0
	for _, x := range xs {
		mu += x
	}
	mu /= n
	v := 0.0
	for _, x := range xs {
		d := x - mu
		v += d * d
	}
	sd := math.Sqrt(v / n)
	sort.Float64s(xs)
	iqr := quantile(xs, 0.75) - quantile(xs, 0.25)
	spread := sd
	if iqr > 0 && iqr/1.34 < spread {
		spread = iqr / 1.34
	}
	return 1.06 * spread * math.Pow(n, -0.2)
}

// quantile interpolates the q-quantile of the sorted slice s.
func quantile(s []float64, q float64) float64 {
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := h - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// EstimateCtx evaluates Eq. 3 over box with the given points and config.
// Weights c_i are used as provided (the query layer normalizes them). The
// raster is split into disjoint row bands fanned out across cfg.Workers
// goroutines. Each band accumulates only its own cells, so no
// synchronization is needed on the value buffer; ctx cancellation aborts
// between bands.
func EstimateCtx(ctx context.Context, pts []WeightedPoint, box geo.BBox, cfg Config) (*Field, error) {
	if len(pts) == 0 {
		return nil, ErrInput
	}
	if box.IsEmpty() {
		return nil, fmt.Errorf("kde: empty study area box")
	}
	cfg = cfg.WithDefaults()
	h := cfg.Bandwidth
	if h <= 0 {
		h = SilvermanBandwidth(pts)
	}
	f := &Field{
		Box: box, Cols: cfg.Cols, Rows: cfg.Rows,
		Values:    make([]float64, cfg.Cols*cfg.Rows),
		Bandwidth: h, Kernel: cfg.Kernel,
	}
	// Each point's footprint and column terms are built once per call, not
	// once per band: a footprint spans several bands, and the column terms
	// are where the exponentials are.
	fps := make([]footprint, len(pts))
	off := make([]int, len(pts)+1)
	for i, p := range pts {
		fps[i] = f.footprint(p.Loc, cfg.Exact)
		off[i+1] = off[i] + fps[i].c1 - fps[i].c0 + 1
	}
	terms := make([]float64, 0, off[len(pts)])
	for i, p := range pts {
		terms = f.colTerms(terms, p.Loc.Lon, fps[i])
	}
	invN := 1 / float64(len(pts))
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	err := exec.ForEachChunk(ctx, cfg.Rows, workers, func(lo, hi int) error {
		for k, p := range pts {
			if p.Weight == 0 {
				continue
			}
			fp := fps[k]
			fp.r0, fp.r1 = max(fp.r0, lo), min(fp.r1, hi-1)
			f.stampRows(p.Loc.Lat, invN*p.Weight, terms[off[k]:off[k+1]], fp)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Stamp adds scale·p.Weight·K_h(x − p.Loc) over p's truncated footprint,
// with the field's own kernel and bandwidth. Eq. 3 is every point's stamp
// at scale 1/n; a negative scale takes one back out (the live tracker).
func (f *Field) Stamp(p WeightedPoint, scale float64) {
	if p.Weight == 0 {
		return
	}
	fp := f.footprint(p.Loc, false)
	var buf [128]float64 // keeps the usual footprint's column terms off the heap
	f.stampRows(p.Loc.Lat, scale*p.Weight, f.colTerms(buf[:0], p.Loc.Lon, fp), fp)
}

// footprint is the inclusive cell range one point's kernel reaches.
type footprint struct {
	c0, c1, r0, r1 int
}

// footprint returns the cells within the kernel's support of p (5h for the
// Gaussian, h for the compact kernels), or the whole raster when exact.
func (f *Field) footprint(p geo.Point, exact bool) footprint {
	if exact {
		return footprint{0, f.Cols - 1, 0, f.Rows - 1}
	}
	support := f.Bandwidth
	if f.Kernel == KernelGaussian {
		support = 5 * f.Bandwidth
	}
	cellW, cellH := f.CellSize()
	return footprint{
		c0: clamp(int((p.Lon-support-f.Box.Min.Lon)/cellW), 0, f.Cols-1),
		c1: clamp(int((p.Lon+support-f.Box.Min.Lon)/cellW), 0, f.Cols-1),
		r0: clamp(int((p.Lat-support-f.Box.Min.Lat)/cellH), 0, f.Rows-1),
		r1: clamp(int((p.Lat+support-f.Box.Min.Lat)/cellH), 0, f.Rows-1),
	}
}

// colTerms appends the per-column half of a stamp at longitude lon over
// fp's columns: the Gaussian's factor exp(-dx²/2), or dx² for the compact
// kernels, dx being the cell center's distance in bandwidths.
func (f *Field) colTerms(dst []float64, lon float64, fp footprint) []float64 {
	cellW, _ := f.CellSize()
	gaussian := f.Kernel == KernelGaussian
	for c := fp.c0; c <= fp.c1; c++ {
		cx := f.Box.Min.Lon + (float64(c)+0.5)*cellW
		dx := (cx - lon) / f.Bandwidth
		if gaussian {
			dst = append(dst, math.Exp(-0.5*dx*dx))
		} else {
			dst = append(dst, dx*dx)
		}
	}
	return dst
}

// stampRows adds scale·K_h to rows fp.r0..fp.r1 of a stamp at latitude lat
// whose colTerms are cols: the repository's one footprint loop, with the
// kernel chosen per row, not per cell.
func (f *Field) stampRows(lat, scale float64, cols []float64, fp footprint) {
	_, cellH := f.CellSize()
	h := f.Bandwidth
	scale /= h * h
	for r := fp.r0; r <= fp.r1; r++ {
		cy := f.Box.Min.Lat + (float64(r)+0.5)*cellH
		dy := (cy - lat) / h
		row := f.Values[r*f.Cols+fp.c0:][:len(cols)]
		switch f.Kernel {
		case KernelGaussian:
			rf := scale * math.Exp(-0.5*dy*dy) / (2 * math.Pi)
			for i, cf := range cols {
				row[i] += rf * cf
			}
		case KernelEpanechnikov:
			a := scale * 2 / math.Pi
			for i, dx2 := range cols {
				if u2 := dx2 + dy*dy; u2 < 1 {
					row[i] += a * (1 - u2)
				}
			}
		case KernelUniform:
			a := scale / math.Pi
			for i, dx2 := range cols {
				if dx2+dy*dy < 1 {
					row[i] += a
				}
			}
		}
	}
}
