package kriging

import (
	"math"
	"testing"
)

func TestFitModelRecoversFamily(t *testing.T) {
	// Synthesize empirical points from a known spherical model; the fit
	// must recover its sill and its range, which lies between two of the
	// grid's candidate ranges, so only the refinement can reach it.
	truth := Variogram{Nugget: 0.05, Sill: 1.2, Range: 0.37}
	var hs, gs []float64
	for h := 0.01; h < 1.0; h += 0.02 {
		hs = append(hs, h)
		gs = append(gs, truth.At(h))
	}
	fit, sse := fitModel(hs, gs, 1.0)
	if sse > 1e-3 {
		t.Errorf("spherical self-fit SSE = %v, want < 1e-3", sse)
	}
	if math.Abs(fit.Sill-truth.Sill) > 1e-3 {
		t.Errorf("sill = %v, want ≈ %v", fit.Sill, truth.Sill)
	}
	if math.Abs(fit.Range-truth.Range) > 1e-3 {
		t.Errorf("range = %v, want ≈ %v", fit.Range, truth.Range)
	}
}
