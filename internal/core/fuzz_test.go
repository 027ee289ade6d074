package core

import (
	"math"
	"testing"

	"spatialrepart/internal/grid"
)

// FuzzVariation drives VariationAttrs under an all-numeric schema that covers
// both vectors (the plain Eq. 1 mean absolute difference) with arbitrary,
// including mismatched, vector lengths. The guard must turn length
// mismatches into +Inf instead of the out-of-range panic the unguarded loop
// hit, and equal-length inputs must keep Eq. 1 semantics: symmetric,
// non-negative, and zero on identical finite vectors.
func FuzzVariation(f *testing.F) {
	f.Add(3, 3, 1.5, -2.0)
	f.Add(0, 0, 0.0, 0.0)
	f.Add(4, 2, 10.0, 3.0) // len(b) < len(a): the seed's panic case
	f.Add(1, 6, -5.0, 5.0)
	f.Fuzz(func(t *testing.T, la, lb int, va, vb float64) {
		if la < 0 || la > 64 || lb < 0 || lb > 64 {
			t.Skip()
		}
		attrs := make([]grid.Attribute, max(la, lb))
		for k := range attrs {
			attrs[k] = grid.Attribute{Name: "f", Agg: grid.Average}
		}
		a, b := fillVec(la, va), fillVec(lb, vb)
		got := VariationAttrs(attrs, a, b)
		if la != lb {
			if !math.IsInf(got, 1) {
				t.Fatalf("VariationAttrs(len %d, len %d) = %v, want +Inf", la, lb, got)
			}
			return
		}
		if got != VariationAttrs(attrs, b, a) {
			t.Fatalf("VariationAttrs not symmetric: %v vs %v", got, VariationAttrs(attrs, b, a))
		}
		if got < 0 {
			t.Fatalf("VariationAttrs = %v, want ≥ 0", got)
		}
		if self := VariationAttrs(attrs, a, a); self != 0 && !math.IsNaN(va) && !math.IsInf(va, 0) {
			t.Fatalf("VariationAttrs(a, a) = %v, want 0", self)
		}
	})
}

// FuzzVariationAttrs drives VariationAttrs with arbitrary, including
// mismatched, vector lengths and schemas. A length mismatch, or a schema
// shorter than the vectors (which indexed attrs[k] out of range in the
// seed), must return +Inf instead of panicking, and comparable vectors keep
// Eq. 1 semantics: non-negative, symmetric, and zero on identical finite
// vectors.
func FuzzVariationAttrs(f *testing.F) {
	f.Add(3, 3, 3, 1.0, 2.0, false)
	f.Add(4, 4, 2, 1.0, 1.0, true) // schema shorter than vectors
	f.Add(5, 3, 9, 0.5, 0.5, false)
	f.Add(0, 0, 0, 0.0, 0.0, true)
	f.Fuzz(func(t *testing.T, la, lb, lat int, va, vb float64, cat bool) {
		if la < 0 || la > 64 || lb < 0 || lb > 64 || lat < 0 || lat > 64 {
			t.Skip()
		}
		attrs := make([]grid.Attribute, lat)
		for k := range attrs {
			attrs[k] = grid.Attribute{Name: "f", Agg: grid.Average, Categorical: cat && k%2 == 0}
		}
		a, b := fillVec(la, va), fillVec(lb, vb)
		got := VariationAttrs(attrs, a, b)
		if la != lb || lat < la {
			if !math.IsInf(got, 1) {
				t.Fatalf("VariationAttrs(schema %d, len %d, len %d) = %v, want +Inf", lat, la, lb, got)
			}
			return
		}
		if got < 0 {
			t.Fatalf("VariationAttrs = %v, want ≥ 0", got)
		}
		if got != VariationAttrs(attrs, b, a) {
			t.Fatalf("VariationAttrs not symmetric")
		}
		if self := VariationAttrs(attrs, a, a); self != 0 && !math.IsNaN(va) && !math.IsInf(va, 0) {
			t.Fatalf("VariationAttrs(a, a) = %v, want 0", self)
		}
	})
}

func fillVec(n int, v float64) []float64 {
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = v + float64(i)
	}
	return out
}

// TestVariationMismatchedLengths pins the guard outside the fuzzer so plain
// `go test` exercises it too.
func TestVariationMismatchedLengths(t *testing.T) {
	attrs := []grid.Attribute{{Name: "a", Agg: grid.Average}}
	if v := VariationAttrs(attrs, nil, []float64{1}); !math.IsInf(v, 1) {
		t.Errorf("VariationAttrs nil-vs-1 = %v, want +Inf", v)
	}
	if v := VariationAttrs(attrs, []float64{1, 2}, []float64{1, 2}); !math.IsInf(v, 1) {
		t.Errorf("VariationAttrs short schema = %v, want +Inf", v)
	}
	if v := VariationAttrs(attrs, []float64{1}, []float64{1, 2}); !math.IsInf(v, 1) {
		t.Errorf("VariationAttrs mismatch = %v, want +Inf", v)
	}
}
