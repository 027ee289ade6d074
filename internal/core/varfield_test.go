package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"spatialrepart/internal/grid"
)

// randomMultiGrid builds a random grid with 1-3 attributes (mixed sum/avg,
// occasionally categorical) and a fraction of null cells — the adversarial
// input shared by the field/parallel equivalence tests.
func randomMultiGrid(rng *rand.Rand) *grid.Grid {
	return randomMultiGridSized(rng, 2+rng.Intn(9), 2+rng.Intn(9))
}

// randomMultiGridSized is randomMultiGrid at a caller-chosen size.
func randomMultiGridSized(rng *rand.Rand, rows, cols int) *grid.Grid {
	nAttrs := 1 + rng.Intn(3)
	attrs := make([]grid.Attribute, nAttrs)
	for k := range attrs {
		attrs[k] = grid.Attribute{Name: string(rune('a' + k))}
		switch rng.Intn(3) {
		case 0:
			attrs[k].Agg = grid.Sum
			attrs[k].Integer = true
		case 1:
			attrs[k].Agg = grid.Average
		case 2:
			attrs[k].Agg = grid.Average
			attrs[k].Categorical = true
		}
	}
	g := grid.New(rows, cols, attrs)
	fv := make([]float64, nAttrs)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < 0.15 {
				continue // null cell
			}
			for k := range fv {
				if attrs[k].Categorical {
					fv[k] = float64(rng.Intn(4))
				} else {
					fv[k] = float64(rng.Intn(40))
				}
			}
			g.SetVector(r, c, fv)
		}
	}
	return g
}

// TestFieldMatchesCellVariation: every stored field entry must equal the
// direct cellVariation of the pair it caches.
func TestFieldMatchesCellVariation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		g := randomMultiGrid(rng)
		norm, _ := g.Normalized()
		f := BuildField(norm)
		for r := 0; r < norm.Rows; r++ {
			for c := 0; c < norm.Cols; c++ {
				idx := r*norm.Cols + c
				if c+1 < norm.Cols {
					if want := cellVariation(norm, r, c, r, c+1); f.H[idx] != want && !(math.IsInf(f.H[idx], 1) && math.IsInf(want, 1)) {
						t.Fatalf("H[%d,%d] = %v, want %v", r, c, f.H[idx], want)
					}
				} else if !math.IsInf(f.H[idx], 1) {
					t.Fatalf("H[%d,%d] (last column) = %v, want +Inf", r, c, f.H[idx])
				}
				if r+1 < norm.Rows {
					if want := cellVariation(norm, r, c, r+1, c); f.V[idx] != want && !(math.IsInf(f.V[idx], 1) && math.IsInf(want, 1)) {
						t.Fatalf("V[%d,%d] = %v, want %v", r, c, f.V[idx], want)
					}
				} else if !math.IsInf(f.V[idx], 1) {
					t.Fatalf("V[%d,%d] (last row) = %v, want +Inf", r, c, f.V[idx])
				}
				if f.Valid(r, c) != norm.Valid(r, c) {
					t.Fatalf("Valid(%d,%d) mismatch", r, c)
				}
			}
		}
	}
}

// TestExtractFieldMatchesExtract: Algorithm 1 over the precomputed field
// must produce exactly the partition the direct extractor produces, at every
// ladder rung — both into a fresh partition and into one recycled partition
// that carries the whole ladder, climbing and then descending, so stale
// Groups or CellToGroup entries from an earlier rung show up as a mismatch.
func TestExtractFieldMatchesExtract(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomMultiGrid(rng)
		norm, _ := g.Normalized()
		field := BuildField(norm)
		ladder := field.Ladder()
		// Also at a threshold below every rung (identity-ish) and above all.
		vs := []float64{-1}
		for i := 0; i < ladder.Len(); i++ {
			vs = append(vs, ladder.Rung(i))
		}
		vs = append(vs, math.MaxFloat64)
		for i := len(vs) - 2; i >= 0; i-- {
			vs = append(vs, vs[i])
		}
		var recycled Partition
		for _, v := range vs {
			want := extractDirect(norm, v)
			if !reflect.DeepEqual(want, ExtractField(field, v)) {
				return false
			}
			field.extractInto(&recycled, v)
			if !reflect.DeepEqual(*want, recycled) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBuildFieldParallelBitIdentical: the row-sharded field build must match
// the sequential build exactly, for any worker count.
func TestBuildFieldParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		g := randomMultiGrid(rng)
		norm, _ := g.Normalized()
		want := BuildField(norm)
		for _, w := range []int{1, 2, 3, 8} {
			if got := BuildFieldParallel(norm, w); !reflect.DeepEqual(want, got) {
				t.Fatalf("BuildFieldParallel(workers=%d) differs from BuildField", w)
			}
		}
	}
}

// TestLadderFromFieldMatchesHeapReference rebuilds the ladder the way the
// seed's container/heap implementation did and checks the sort-and-dedupe
// replacement yields the identical rung sequence.
func TestLadderFromFieldMatchesHeapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		g := randomMultiGrid(rng)
		norm, _ := g.Normalized()
		// Reference: collect every finite adjacent variation, sort, dedupe —
		// the distinct ascending sequence the heap pops produced.
		var ref []float64
		for r := 0; r < norm.Rows; r++ {
			for c := 0; c < norm.Cols; c++ {
				if c+1 < norm.Cols {
					if v := cellVariation(norm, r, c, r, c+1); !math.IsInf(v, 1) {
						ref = append(ref, v)
					}
				}
				if r+1 < norm.Rows {
					if v := cellVariation(norm, r, c, r+1, c); !math.IsInf(v, 1) {
						ref = append(ref, v)
					}
				}
			}
		}
		refLadder := distinctSorted(ref)
		got := BuildLadder(norm).Values()
		if !reflect.DeepEqual(refLadder, got) {
			t.Fatalf("ladder mismatch: ref %v, got %v", refLadder, got)
		}
	}
}

func distinctSorted(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	for i := 1; i < len(out); i++ { // insertion sort: independent of sort pkg
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	dedup := out[:0]
	prev := math.Inf(-1)
	for _, v := range out {
		if v > prev {
			dedup = append(dedup, v)
			prev = v
		}
	}
	if len(dedup) == 0 {
		return nil
	}
	return dedup
}
