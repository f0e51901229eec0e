package kde

import (
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
