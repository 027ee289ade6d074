package regress

import (
	"fmt"
	"math"
	"sort"

	"spatialrepart/internal/mat"
	"spatialrepart/internal/par"
)

// GWR is a geographically weighted regression: a separate weighted least
// squares fit at every prediction location, with Gaussian kernel weights and
// an adaptive bandwidth (the distance to the k-th nearest training point —
// the paper's `fixed: False` setting). k is chosen by minimizing the
// corrected Akaike information criterion (criterion: AICc).
type GWR struct {
	K int // adaptive bandwidth neighbor count

	x        [][]float64
	y        []float64
	lat, lon []float64
}

// weight evaluates the Gaussian kernel exp(−½ (d/b)²) — the paper's Table I
// setting — at squared distance d2 with squared bandwidth b2.
func weight(d2, b2 float64) float64 {
	return math.Exp(-0.5 * d2 / b2)
}

// aiccSample caps the number of training points used to evaluate AICc during
// bandwidth selection. Leverages and residuals are averaged over the sample
// and extrapolated, keeping selection O(sample·n).
const aiccSample = 400

// GWROptions configures FitGWR.
type GWROptions struct {
	// K fixes the adaptive bandwidth neighbor count; 0 selects it by AICc.
	K int
}

// FitGWR stores the training data and selects the adaptive bandwidth.
func FitGWR(x [][]float64, y, lat, lon []float64, opts GWROptions) (*GWR, error) {
	n := len(y)
	if len(x) != n || len(lat) != n || len(lon) != n {
		return nil, fmt.Errorf("regress: GWR input length mismatch (%d,%d,%d,%d)", len(x), n, len(lat), len(lon))
	}
	if n == 0 {
		return nil, fmt.Errorf("regress: GWR needs at least one instance")
	}
	p := len(x[0]) + 1
	g := &GWR{x: x, y: y, lat: lat, lon: lon}
	if opts.K > 0 {
		g.K = opts.K
		return g, nil
	}

	stride := n / min(aiccSample, n)

	// Candidate neighbor counts from small local fits to the global fit.
	minK := p + 2
	if minK >= n {
		minK = n - 1
	}
	if minK < 1 {
		minK = 1
	}
	var candidates []int
	for k := minK; k < n; k = k*3/2 + 1 {
		candidates = append(candidates, k)
	}
	if len(candidates) == 0 {
		candidates = []int{minK}
	}

	bestK, bestAICc := candidates[0], math.Inf(1)
	for _, k := range candidates {
		aicc, err := g.aicc(k, stride)
		if err != nil {
			continue
		}
		if aicc < bestAICc {
			bestK, bestAICc = k, aicc
		}
	}
	g.K = bestK
	return g, nil
}

// aicc evaluates the corrected AIC for bandwidth k over every stride-th
// training point, extrapolating the residual sum of squares and the hat
// trace to the full training set.
func (g *GWR) aicc(k, stride int) (float64, error) {
	n := len(g.y)
	var rss, trS float64
	count := 0
	for i := 0; i < n; i += stride {
		pred, lev, err := g.localFit(g.x[i], g.lat[i], g.lon[i], k, true, i)
		if err != nil {
			return 0, err
		}
		d := g.y[i] - pred
		rss += d * d
		trS += lev
		count++
	}
	if count == 0 {
		return 0, fmt.Errorf("regress: empty AICc sample")
	}
	scale := float64(n) / float64(count)
	rss *= scale
	trS *= scale
	sigma2 := rss / float64(n)
	if sigma2 <= 0 {
		sigma2 = 1e-300
	}
	den := float64(n) - 2 - trS
	if den <= 0 {
		return math.Inf(1), nil
	}
	return float64(n)*math.Log(sigma2) + float64(n)*math.Log(2*math.Pi) +
		float64(n)*(float64(n)+trS)/den, nil
}

// localFit runs one weighted least squares fit centered at (clat, clon) and
// evaluates it at feature vector xq. When wantLeverage is set, selfIdx names
// the training index whose hat-diagonal to report.
func (g *GWR) localFit(xq []float64, clat, clon float64, k int, wantLeverage bool, selfIdx int) (pred, leverage float64, err error) {
	n := len(g.y)
	d2 := make([]float64, n)
	for j := 0; j < n; j++ {
		dlat, dlon := g.lat[j]-clat, g.lon[j]-clon
		d2[j] = dlat*dlat + dlon*dlon
	}
	// Adaptive bandwidth: distance to the k-th nearest training point.
	if k >= n {
		k = n - 1
	}
	if k < 1 {
		k = 1
	}
	sorted := make([]float64, n)
	copy(sorted, d2)
	sort.Float64s(sorted)
	b2 := sorted[k]
	if b2 <= 0 {
		b2 = 1e-12
	}

	p := len(xq) + 1
	a := mat.NewDense(p, p)
	bv := make([]float64, p)
	xi := make([]float64, p)
	for j := 0; j < n; j++ {
		w := weight(d2[j], b2)
		if w < 1e-12 {
			continue
		}
		xi[0] = 1
		copy(xi[1:], g.x[j])
		for r := 0; r < p; r++ {
			wr := w * xi[r]
			bv[r] += wr * g.y[j]
			arow := a.Row(r)
			for c := r; c < p; c++ {
				arow[c] += wr * xi[c]
			}
		}
	}
	for r := 0; r < p; r++ {
		for c := 0; c < r; c++ {
			a.Set(r, c, a.At(c, r))
		}
	}
	// Tiny ridge for degenerate local designs.
	for r := 0; r < p; r++ {
		a.Set(r, r, a.At(r, r)+1e-9)
	}
	beta, err := mat.SolveCholesky(a, bv)
	if err != nil {
		beta, err = mat.SolveLU(a, bv)
		if err != nil {
			return 0, 0, fmt.Errorf("regress: GWR local solve: %w", err)
		}
	}
	pred = beta[0]
	for j, f := range xq {
		pred += beta[j+1] * f
	}
	if wantLeverage && selfIdx >= 0 {
		xi[0] = 1
		copy(xi[1:], g.x[selfIdx])
		z, err := mat.SolveCholesky(a, xi)
		if err != nil {
			z, err = mat.SolveLU(a, xi)
			if err != nil {
				return 0, 0, err
			}
		}
		// hat_ii = w_ii · xᵢᵀ A⁻¹ xᵢ with w_ii = kernel(0) = 1.
		leverage = mat.Dot(xi, z)
	}
	return pred, leverage, nil
}

// Predict evaluates the local regression at each query location. Local fits
// are independent, so queries run on all available cores, in 16 ranges per
// core so that a core that finishes early takes the next range. A failed
// query returns the error of the first failing query in index order.
func (g *GWR) Predict(x [][]float64, lat, lon []float64) ([]float64, error) {
	if len(x) != len(lat) || len(lat) != len(lon) {
		return nil, fmt.Errorf("regress: GWR predict length mismatch")
	}
	for i := range x {
		if len(x[i]) != len(g.x[0]) {
			return nil, fmt.Errorf("regress: query %d has %d features, want %d", i, len(x[i]), len(g.x[0]))
		}
	}
	out := make([]float64, len(x))
	errs := make([]error, len(x))
	workers := par.Workers(0)
	par.Ranges(len(x), 16*workers, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i], _, errs[i] = g.localFit(x[i], lat[i], lon[i], g.K, false, -1)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
