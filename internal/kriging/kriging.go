// Package kriging implements ordinary kriging — the Table II(f) geostatistics
// model the paper trains through Pyinterpolate (hyperparameters
// search_radius: 0.01, max_range: 0.32, number_of_neighbors: 8).
//
// Fitting estimates the empirical semivariogram on distance bins of width
// SearchRadius up to MaxRange, then fits a spherical model (nugget, sill,
// range) by least squares with a grid-plus-refine search over the range.
// Prediction solves the ordinary kriging system over the NumNeighbors
// nearest observations of each query point.
package kriging

import (
	"fmt"
	"math"
	"sort"

	"spatialrepart/internal/mat"
	"spatialrepart/internal/par"
)

// Options configures FitKriging. Zero values take the paper's Table I
// hyperparameters.
type Options struct {
	SearchRadius float64 // variogram bin width (default 0.01)
	MaxRange     float64 // maximum lag distance considered (default 0.32)
	NumNeighbors int     // kriging neighborhood size (default 8)
	// MaxPairs caps the number of point pairs used for the empirical
	// semivariogram (default 2_000_000); larger datasets subsample
	// deterministically by striding.
	MaxPairs int
}

func (o *Options) defaults() {
	if o.SearchRadius == 0 {
		o.SearchRadius = 0.01
	}
	if o.MaxRange == 0 {
		o.MaxRange = 0.32
	}
	if o.NumNeighbors == 0 {
		o.NumNeighbors = 8
	}
	if o.MaxPairs == 0 {
		o.MaxPairs = 2_000_000
	}
}

// Variogram is a fitted spherical semivariogram model — the family Table
// I's Pyinterpolate settings imply.
type Variogram struct {
	Nugget float64 // γ at h → 0⁺
	Sill   float64 // partial sill (the model plateaus at Nugget + Sill)
	Range  float64 // distance at which the model reaches its plateau
}

// At evaluates the model at lag h.
func (v Variogram) At(h float64) float64 {
	if h <= 0 {
		return 0
	}
	return v.Nugget + v.Sill*spherical(h, v.Range)
}

// spherical is the spherical shape at lag h for range a: 1.5r − 0.5r³ with
// r = h/a, reaching 1 exactly at a and staying there.
func spherical(h, a float64) float64 {
	if h >= a {
		return 1
	}
	r := h / a
	return 1.5*r - 0.5*r*r*r
}

// Kriging is a fitted ordinary kriging interpolator.
type Kriging struct {
	Model Variogram

	lat, lon, y  []float64
	numNeighbors int
}

// FitKriging estimates the semivariogram from the observations.
func FitKriging(lat, lon, y []float64, opts Options) (*Kriging, error) {
	n := len(y)
	if len(lat) != n || len(lon) != n {
		return nil, fmt.Errorf("kriging: input length mismatch (%d,%d,%d)", len(lat), len(lon), n)
	}
	if n < 2 {
		return nil, fmt.Errorf("kriging: need at least 2 observations, got %d", n)
	}
	opts.defaults()

	nBins := int(math.Ceil(opts.MaxRange / opts.SearchRadius))
	if nBins < 1 {
		nBins = 1
	}
	gammaSum := make([]float64, nBins)
	counts := make([]int, nBins)

	// Deterministic pair subsampling: stride over the second index.
	totalPairs := n * (n - 1) / 2
	stride := 1
	if totalPairs > opts.MaxPairs {
		stride = totalPairs/opts.MaxPairs + 1
	}
	pair := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pair++
			if pair%stride != 0 {
				continue
			}
			dlat, dlon := lat[i]-lat[j], lon[i]-lon[j]
			h := math.Sqrt(dlat*dlat + dlon*dlon)
			if h >= opts.MaxRange || h == 0 {
				continue
			}
			bin := int(h / opts.SearchRadius)
			if bin >= nBins {
				bin = nBins - 1
			}
			d := y[i] - y[j]
			gammaSum[bin] += 0.5 * d * d
			counts[bin]++
		}
	}

	// Empirical semivariogram points (bin centers with data).
	var hs, gs []float64
	for b := 0; b < nBins; b++ {
		if counts[b] == 0 {
			continue
		}
		hs = append(hs, (float64(b)+0.5)*opts.SearchRadius)
		gs = append(gs, gammaSum[b]/float64(counts[b]))
	}
	if len(hs) == 0 {
		return nil, fmt.Errorf("kriging: no point pairs within max range %v", opts.MaxRange)
	}

	model, _ := fitModel(hs, gs, opts.MaxRange)
	return &Kriging{Model: model, lat: lat, lon: lon, y: y, numNeighbors: opts.NumNeighbors}, nil
}

// fitModel least-squares-fits (nugget, sill) for each candidate range and
// keeps the best, refining around the winner. Returns the fitted model and
// its SSE against the empirical points.
func fitModel(hs, gs []float64, maxRange float64) (Variogram, float64) {
	eval := func(a float64) (Variogram, float64) {
		// Linear LS on basis [1, f_a(h)] with nonnegativity clamps.
		var s11, s12, s22, b1, b2 float64
		for i, h := range hs {
			f := spherical(h, a)
			s11 += 1
			s12 += f
			s22 += f * f
			b1 += gs[i]
			b2 += gs[i] * f
		}
		det := s11*s22 - s12*s12
		var c0, c float64
		if math.Abs(det) > 1e-12 {
			c0 = (b1*s22 - b2*s12) / det
			c = (s11*b2 - s12*b1) / det
		} else {
			c0, c = 0, b1/s11
		}
		if c0 < 0 {
			c0 = 0
			if s22 > 0 {
				c = b2 / s22
			}
		}
		if c < 0 {
			c = 0
			c0 = b1 / s11
			if c0 < 0 {
				c0 = 0
			}
		}
		v := Variogram{Nugget: c0, Sill: c, Range: a}
		var sse float64
		for i, h := range hs {
			d := gs[i] - v.At(h)
			sse += d * d
		}
		return v, sse
	}

	best, bestSSE := eval(maxRange)
	for i := 1; i <= 20; i++ {
		a := maxRange * float64(i) / 20
		if v, sse := eval(a); sse < bestSSE {
			best, bestSSE = v, sse
		}
	}
	// Golden refinement around the winner.
	lo := best.Range - maxRange/20
	hi := best.Range + maxRange/20
	if lo <= 0 {
		lo = maxRange / 100
	}
	for it := 0; it < 25; it++ {
		m1 := lo + (hi-lo)*0.382
		m2 := lo + (hi-lo)*0.618
		_, s1 := eval(m1)
		_, s2 := eval(m2)
		if s1 < s2 {
			hi = m2
		} else {
			lo = m1
		}
	}
	if v, sse := eval((lo + hi) / 2); sse < bestSSE {
		best, bestSSE = v, sse
	}
	return best, bestSSE
}

type cand struct {
	idx int
	d   float64
}

// predictOne interpolates a single location using the caller-owned candidate
// buffer (len == number of observations).
func (k *Kriging) predictOne(lat, lon float64, cands []cand) float64 {
	n := len(k.y)
	nn := k.numNeighbors
	if nn > n {
		nn = n
	}
	exact := -1
	for i := 0; i < n; i++ {
		dlat, dlon := k.lat[i]-lat, k.lon[i]-lon
		d := math.Sqrt(dlat*dlat + dlon*dlon)
		cands[i] = cand{i, d}
		if d == 0 {
			exact = i
		}
	}
	if exact >= 0 {
		return k.y[exact]
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
	nb := cands[:nn]

	// Ordinary kriging system with a Lagrange multiplier row.
	m := nn + 1
	a := mat.NewDense(m, m)
	rhs := make([]float64, m)
	for i := 0; i < nn; i++ {
		for j := i + 1; j < nn; j++ {
			dlat := k.lat[nb[i].idx] - k.lat[nb[j].idx]
			dlon := k.lon[nb[i].idx] - k.lon[nb[j].idx]
			g := k.Model.At(math.Sqrt(dlat*dlat + dlon*dlon))
			a.Set(i, j, g)
			a.Set(j, i, g)
		}
		a.Set(i, nn, 1)
		a.Set(nn, i, 1)
		rhs[i] = k.Model.At(nb[i].d)
	}
	// Small jitter keeps the system solvable when the variogram is flat.
	for i := 0; i < nn; i++ {
		a.Set(i, i, a.At(i, i)+1e-10)
	}
	rhs[nn] = 1
	wts, err := mat.SolveLU(a, rhs)
	if err != nil {
		// Flat variogram or collinear points: fall back to inverse distance
		// weighting over the same neighborhood.
		var num, den float64
		for i := 0; i < nn; i++ {
			w := 1 / nb[i].d
			num += w * k.y[nb[i].idx]
			den += w
		}
		return num / den
	}
	var v float64
	for i := 0; i < nn; i++ {
		v += wts[i] * k.y[nb[i].idx]
	}
	return v
}

// Predict interpolates the variable at each query location by solving the
// ordinary kriging system over the nearest NumNeighbors observations.
// Queries are independent and run on all available cores, in 16 ranges per
// core so that a core that finishes early takes the next range.
func (k *Kriging) Predict(lat, lon []float64) ([]float64, error) {
	if len(lat) != len(lon) {
		return nil, fmt.Errorf("kriging: query length mismatch %d vs %d", len(lat), len(lon))
	}
	out := make([]float64, len(lat))
	workers := par.Workers(0)
	par.Ranges(len(lat), 16*workers, workers, func(_, lo, hi int) {
		cands := make([]cand, len(k.y))
		for q := lo; q < hi; q++ {
			out[q] = k.predictOne(lat[q], lon[q], cands)
		}
	})
	return out, nil
}
