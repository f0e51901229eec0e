package kde

import (
	"math"

	"vap/internal/geo"
)

// estimateRef is the oracle the separable stamp is tested against: the
// per-cell grid loop EstimateCtx ran before the separable stamp replaced
// it, verbatim — one kernelValue call (a switch, an exp and a division)
// per cell of every point's footprint, serially over the whole raster.
func estimateRef(pts []WeightedPoint, box geo.BBox, cfg Config) (*Field, error) {
	if len(pts) == 0 {
		return nil, ErrInput
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
	cellW := (box.Max.Lon - box.Min.Lon) / float64(cfg.Cols)
	cellH := (box.Max.Lat - box.Min.Lat) / float64(cfg.Rows)
	invN := 1 / float64(len(pts))
	// Support radius: the Gaussian tail beyond 5h contributes < 4e-6 of
	// the peak; compact kernels end exactly at h.
	support := h
	if cfg.Kernel == KernelGaussian {
		support = 5 * h
	}
	// Precompute each point's raster footprint once so every band pays
	// only a range intersection per point.
	type footprint struct {
		c0, c1, r0, r1 int
	}
	fps := make([]footprint, len(pts))
	for i, p := range pts {
		fp := footprint{0, cfg.Cols - 1, 0, cfg.Rows - 1}
		if !cfg.Exact {
			fp.c0 = clamp(int((p.Loc.Lon-support-box.Min.Lon)/cellW), 0, cfg.Cols-1)
			fp.c1 = clamp(int((p.Loc.Lon+support-box.Min.Lon)/cellW), 0, cfg.Cols-1)
			fp.r0 = clamp(int((p.Loc.Lat-support-box.Min.Lat)/cellH), 0, cfg.Rows-1)
			fp.r1 = clamp(int((p.Loc.Lat+support-box.Min.Lat)/cellH), 0, cfg.Rows-1)
		}
		fps[i] = fp
	}
	lo, hi := 0, cfg.Rows
	for k, p := range pts {
		if p.Weight == 0 {
			continue
		}
		fp := fps[k]
		r0, r1 := fp.r0, fp.r1
		if r0 < lo {
			r0 = lo
		}
		if r1 >= hi {
			r1 = hi - 1
		}
		for r := r0; r <= r1; r++ {
			cy := box.Min.Lat + (float64(r)+0.5)*cellH
			dy := (cy - p.Loc.Lat) / h
			for c := fp.c0; c <= fp.c1; c++ {
				cx := box.Min.Lon + (float64(c)+0.5)*cellW
				dx := (cx - p.Loc.Lon) / h
				u2 := dx*dx + dy*dy
				k := kernelValue(cfg.Kernel, u2)
				if k != 0 {
					f.Values[r*cfg.Cols+c] += invN * p.Weight * k / (h * h)
				}
			}
		}
	}
	return f, nil
}

// kernelValue evaluates the 2-D kernel given the squared scaled distance
// u2 = ||(x - xi)/h||^2.
func kernelValue(k Kernel, u2 float64) float64 {
	switch k {
	case KernelGaussian:
		return math.Exp(-0.5*u2) / (2 * math.Pi)
	case KernelEpanechnikov:
		if u2 >= 1 {
			return 0
		}
		return 2 / math.Pi * (1 - u2)
	case KernelUniform:
		if u2 >= 1 {
			return 0
		}
		return 1 / math.Pi
	default:
		return 0
	}
}

// EstimateAt evaluates the density at a single point exactly.
func EstimateAt(pts []WeightedPoint, at geo.Point, h float64, k Kernel) float64 {
	if h <= 0 || len(pts) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range pts {
		dx := (at.Lon - p.Loc.Lon) / h
		dy := (at.Lat - p.Loc.Lat) / h
		s += p.Weight * kernelValue(k, dx*dx+dy*dy)
	}
	return s / (float64(len(pts)) * h * h)
}

// CellOf returns the cell containing p, clamped to the raster.
func (f *Field) CellOf(p geo.Point) (col, row int) {
	w, h := f.CellSize()
	col = clamp(int((p.Lon-f.Box.Min.Lon)/w), 0, f.Cols-1)
	row = clamp(int((p.Lat-f.Box.Min.Lat)/h), 0, f.Rows-1)
	return col, row
}

// Integral returns the raster sum times cell area (degree^2), a proxy for
// total mass.
func (f *Field) Integral() float64 {
	w, h := f.CellSize()
	s := 0.0
	for _, v := range f.Values {
		s += v
	}
	return s * w * h
}
