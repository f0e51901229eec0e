// Package flow implements VAP's shift-pattern discovery (paper §2.1,
// Figure 2): the demand-shift field Shift(x) = f_t2(x) - f_t1(x) of Eq. 4,
// plus two renderable flow representations built from it —
//
//  1. a gradient vector field of the shift surface (arrows point from
//     demand-losing toward demand-gaining areas), and
//  2. discrete origin-destination flows extracted by greedily matching
//     mass-losing cells to mass-gaining cells (a transport-style smoothing
//     in the spirit of Guo & Zhu's OD flow mapping, the paper's
//     reference [10]).
//
// Arrow "color depth represents the rate of change" (§2.2): each flow
// carries a Rate in [0,1] the renderer maps to color intensity.
package flow

import (
	"errors"
	"math"

	"vap/internal/geo"
	"vap/internal/kde"
)

// ErrInput flags invalid flow extraction input.
var ErrInput = errors.New("flow: invalid input")

// Shift computes Eq. 4: the density difference field between two KDE maps
// of identical geometry.
func Shift(t1, t2 *kde.Field) (*kde.Field, error) {
	if t1 == nil || t2 == nil {
		return nil, ErrInput
	}
	return t2.Sub(t1)
}

// Vector is one flow arrow from From to To with magnitude Mass (density
// units) and Rate in [0,1] (normalized rate of change for coloring).
type Vector struct {
	From geo.Point `json:"from"`
	To   geo.Point `json:"to"`
	Mass float64   `json:"mass"`
	Rate float64   `json:"rate"`
}

// GradientField returns one vector per grid cell (subsampled by stride)
// pointing uphill on the shift surface, i.e. from loss toward gain. Cells
// whose gradient magnitude is below cutoff (relative to the max) are
// omitted. stride <= 0 defaults to 4.
func GradientField(shift *kde.Field, stride int, cutoff float64) []Vector {
	if shift == nil || len(shift.Values) == 0 {
		return nil
	}
	if stride <= 0 {
		stride = 4
	}
	cols, rows := shift.Cols, shift.Rows
	cellW, cellH := shift.CellSize()
	type g struct {
		c, r   int
		gx, gy float64
		mag    float64
	}
	var grads []g
	maxMag := 0.0
	for r := stride / 2; r < rows; r += stride {
		for c := stride / 2; c < cols; c += stride {
			gx := centralDiff(shift, c, r, 1, 0) / cellW
			gy := centralDiff(shift, c, r, 0, 1) / cellH
			mag := math.Hypot(gx, gy)
			if mag > maxMag {
				maxMag = mag
			}
			grads = append(grads, g{c, r, gx, gy, mag})
		}
	}
	if maxMag == 0 {
		return nil
	}
	arrowScale := float64(stride) * 0.8
	var out []Vector
	for _, e := range grads {
		rel := e.mag / maxMag
		if rel < cutoff {
			continue
		}
		from := shift.CellCenter(e.c, e.r)
		// Unit direction scaled to a readable arrow length in cells.
		ux := e.gx / e.mag
		uy := e.gy / e.mag
		to := geo.Point{
			Lon: from.Lon + ux*arrowScale*cellW,
			Lat: from.Lat + uy*arrowScale*cellH,
		}
		out = append(out, Vector{From: from, To: to, Mass: e.mag, Rate: rel})
	}
	return out
}

func centralDiff(f *kde.Field, c, r, dc, dr int) float64 {
	c0, r0 := c-dc, r-dr
	c1, r1 := c+dc, r+dr
	if c0 < 0 {
		c0 = 0
	}
	if r0 < 0 {
		r0 = 0
	}
	if c1 >= f.Cols {
		c1 = f.Cols - 1
	}
	if r1 >= f.Rows {
		r1 = f.Rows - 1
	}
	span := float64((c1 - c0) + (r1 - r0))
	if span == 0 {
		return 0
	}
	return (f.At(c1, r1) - f.At(c0, r0)) / span
}

// ODConfig tunes origin-destination extraction.
type ODConfig struct {
	// TopK caps the number of source and sink cells considered (by
	// magnitude). Default 32.
	TopK int
	// MaxFlows caps the emitted flows. Default 64.
	MaxFlows int
	// MinMassFrac drops flows carrying less than this fraction of the
	// largest flow's mass. Default 0.05.
	MinMassFrac float64
}

func (c *ODConfig) defaults() {
	if c.TopK <= 0 {
		c.TopK = 32
	}
	if c.MaxFlows <= 0 {
		c.MaxFlows = 64
	}
	if c.MinMassFrac <= 0 {
		c.MinMassFrac = 0.05
	}
}

type cellMass struct {
	c, r int
	mass float64 // positive
}

// keepTop inserts cm into top, the at most k heaviest cells seen so far in
// descending mass, equal masses in arrival order. Nearly every cell fails
// the first comparison, so the selection is one pass over the raster.
func keepTop(top []cellMass, k int, cm cellMass) []cellMass {
	if len(top) == k {
		if cm.mass <= top[k-1].mass {
			return top
		}
		top = top[:k-1]
	}
	j := len(top)
	top = append(top, cm)
	for ; j > 0 && top[j-1].mass < cm.mass; j-- {
		top[j] = top[j-1]
	}
	top[j] = cm
	return top
}

// topCells returns the k strongest demand-losing cells (sources) and the k
// strongest demand-gaining cells (sinks), ties in row-major order.
func topCells(shift *kde.Field, k int) (sources, sinks []cellMass) {
	for r := 0; r < shift.Rows; r++ {
		for c := 0; c < shift.Cols; c++ {
			v := shift.At(c, r)
			switch {
			case v < 0:
				sources = keepTop(sources, k, cellMass{c, r, -v})
			case v > 0:
				sinks = keepTop(sinks, k, cellMass{c, r, v})
			}
		}
	}
	return sources, sinks
}

// ExtractOD extracts discrete flows from the shift field: the strongest
// demand-losing cells (negative shift) are greedily matched to the
// strongest demand-gaining cells (positive shift), nearest-first weighted
// by transferable mass. The result approximates where high demand moved.
func ExtractOD(shift *kde.Field, cfg ODConfig) []Vector {
	if shift == nil || len(shift.Values) == 0 {
		return nil
	}
	cfg.defaults()
	sources, sinks := topCells(shift, cfg.TopK)
	if len(sources) == 0 || len(sinks) == 0 {
		return nil
	}
	// Greedy transport: repeatedly move mass along the pair maximizing
	// transferable mass / (1 + normalized distance).
	srcRem := make([]float64, len(sources))
	for i, s := range sources {
		srcRem[i] = s.mass
	}
	sinkRem := make([]float64, len(sinks))
	for i, s := range sinks {
		sinkRem[i] = s.mass
	}
	diag := math.Hypot(float64(shift.Cols), float64(shift.Rows))
	var out []Vector
	for len(out) < cfg.MaxFlows {
		bestI, bestJ, bestScore := -1, -1, 0.0
		for i := range sources {
			if srcRem[i] <= 0 {
				continue
			}
			for j := range sinks {
				if sinkRem[j] <= 0 {
					continue
				}
				m := math.Min(srcRem[i], sinkRem[j])
				d := math.Hypot(float64(sources[i].c-sinks[j].c), float64(sources[i].r-sinks[j].r)) / diag
				score := m / (1 + 4*d)
				if score > bestScore {
					bestI, bestJ, bestScore = i, j, score
				}
			}
		}
		if bestI < 0 {
			break
		}
		m := math.Min(srcRem[bestI], sinkRem[bestJ])
		srcRem[bestI] -= m
		sinkRem[bestJ] -= m
		out = append(out, Vector{
			From: shift.CellCenter(sources[bestI].c, sources[bestI].r),
			To:   shift.CellCenter(sinks[bestJ].c, sinks[bestJ].r),
			Mass: m,
		})
	}
	if len(out) == 0 {
		return nil
	}
	maxMass := out[0].Mass
	for _, v := range out[1:] {
		if v.Mass > maxMass {
			maxMass = v.Mass
		}
	}
	kept := out[:0]
	for _, v := range out {
		if v.Mass >= cfg.MinMassFrac*maxMass {
			v.Rate = v.Mass / maxMass
			kept = append(kept, v)
		}
	}
	return kept
}

// Summary quantifies a shift field for the sensitivity experiments (E6/E7).
type Summary struct {
	L1           float64   `json:"l1"`            // total absolute shifted mass
	MaxGain      float64   `json:"max_gain"`      // strongest gaining cell
	MaxLoss      float64   `json:"max_loss"`      // strongest losing cell (positive value)
	GainCenter   geo.Point `json:"gain_center"`   // mass-weighted centroid of gains
	LossCenter   geo.Point `json:"loss_center"`   // mass-weighted centroid of losses
	ShiftBearing float64   `json:"shift_bearing"` // degrees, loss centroid -> gain centroid
	ShiftMeters  float64   `json:"shift_meters"`  // distance between the centroids
}

// Summarize computes the scalar diagnostics of a shift field.
func Summarize(shift *kde.Field) Summary {
	var s Summary
	if shift == nil || len(shift.Values) == 0 {
		return s
	}
	var gainMass, lossMass float64
	var gLon, gLat, lLon, lLat float64
	cellW, cellH := shift.CellSize()
	for r := 0; r < shift.Rows; r++ {
		lat := shift.Box.Min.Lat + (float64(r)+0.5)*cellH
		for c := 0; c < shift.Cols; c++ {
			v := shift.At(c, r)
			lon := shift.Box.Min.Lon + (float64(c)+0.5)*cellW
			switch {
			case v > 0:
				gainMass += v
				gLon += v * lon
				gLat += v * lat
				if v > s.MaxGain {
					s.MaxGain = v
				}
			case v < 0:
				m := -v
				lossMass += m
				lLon += m * lon
				lLat += m * lat
				if m > s.MaxLoss {
					s.MaxLoss = m
				}
			}
		}
	}
	s.L1 = shift.L1Norm()
	if gainMass > 0 {
		s.GainCenter = geo.Point{Lon: gLon / gainMass, Lat: gLat / gainMass}
	}
	if lossMass > 0 {
		s.LossCenter = geo.Point{Lon: lLon / lossMass, Lat: lLat / lossMass}
	}
	if gainMass > 0 && lossMass > 0 {
		s.ShiftMeters = s.LossCenter.DistanceTo(s.GainCenter)
		dy := (s.GainCenter.Lat - s.LossCenter.Lat) * geo.MetersPerDegreeLat
		dx := (s.GainCenter.Lon - s.LossCenter.Lon) * geo.MetersPerDegreeLon(s.LossCenter.Lat)
		s.ShiftBearing = math.Mod(math.Atan2(dx, dy)*180/math.Pi+360, 360)
	}
	return s
}
