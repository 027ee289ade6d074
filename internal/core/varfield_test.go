package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

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
		f := BuildField(norm, 1)
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
// ladder rung. Beside random grids it covers the shapes a column skyline or
// a vertical run cut short at the feasible height would get wrong first:
// constant columns whose runs reach far below the rectangle the scan takes,
// row and column stripes, null blocks under valid cells, and single rows
// and columns.
func TestExtractFieldMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	noise := func(int, int) float64 { return float64(rng.Intn(6)) }
	type namedGrid struct {
		name string
		g    *grid.Grid
	}
	cases := []namedGrid{
		// Rows 0–3 are one value; below them the even columns keep it to
		// the last row and the odd columns are noisy.
		{"deep-columns", patternGrid(14, 10, func(r, c int) float64 {
			if r < 4 || c%2 == 0 {
				return 5
			}
			return noise(r, c)
		})},
		{"constant-beside-noisy", patternGrid(12, 9, func(r, c int) float64 {
			if c%3 == 1 {
				return 7
			}
			return noise(r, c)
		})},
		{"row-stripes", patternGrid(9, 11, func(r, _ int) float64 { return float64(r * 7 % 5) })},
		{"column-stripes", patternGrid(11, 9, func(_, c int) float64 { return float64(c * 7 % 5) })},
		{"null-block-under-valid", patternGrid(12, 12, func(r, c int) float64 {
			switch {
			case r < 4:
				return 3
			case r < 8 && c >= 2 && c <= 8:
				return math.NaN()
			}
			return noise(r, c)
		})},
		{"nulls-under-noisy", patternGrid(10, 10, func(r, c int) float64 {
			if r >= 5 && (c < 3 || c > 6) {
				return math.NaN()
			}
			return noise(r, c)
		})},
		{"1x1", patternGrid(1, 1, noise)},
		{"1x40", patternGrid(1, 40, noise)},
		{"40x1", patternGrid(40, 1, noise)},
		{"1x30-nulls", patternGrid(1, 30, func(r, c int) float64 {
			if c%7 < 2 {
				return math.NaN()
			}
			return noise(r, c)
		})},
		{"30x1-nulls", patternGrid(30, 1, func(r, c int) float64 {
			if r%7 < 2 {
				return math.NaN()
			}
			return noise(r, c)
		})},
	}
	for i := range 40 {
		cases = append(cases, namedGrid{fmt.Sprintf("random-%d", i), randomMultiGrid(rng)})
	}
	for _, tc := range cases {
		if msg := fieldMismatch(tc.g); msg != "" {
			t.Errorf("%s (%d×%d): %s", tc.name, tc.g.Rows, tc.g.Cols, msg)
		}
	}
}

// patternGrid builds a univariate rows×cols grid whose cell (r, c) holds
// val(r, c); NaN marks a null cell.
func patternGrid(rows, cols int, val func(r, c int) float64) *grid.Grid {
	vals := make([][]float64, rows)
	for r := range vals {
		vals[r] = make([]float64, cols)
		for c := range vals[r] {
			vals[r][c] = val(r, c)
		}
	}
	return uniGrid(vals)
}

// fieldMismatch compares ExtractField with extractDirect on g at every rung
// of its ladder, below the first and above the last, and returns the first
// threshold where they differ, or "".
func fieldMismatch(g *grid.Grid) string {
	norm, _ := g.Normalized()
	field := BuildField(norm, 1)
	ladder := field.Ladder()
	vs := []float64{-1}
	for i := 0; i < ladder.Len(); i++ {
		vs = append(vs, ladder.Rung(i))
	}
	vs = append(vs, math.MaxFloat64)
	for _, v := range vs {
		want := extractDirect(norm, v)
		if got := ExtractField(field, v); !reflect.DeepEqual(want, got) {
			return fmt.Sprintf("variation %v: ExtractField %v, extractDirect %v", v, got.Groups, want.Groups)
		}
	}
	return ""
}

// TestBuildFieldParallelBitIdentical: the row-sharded field build must match
// one sweep over all rows exactly, for any worker count.
func TestBuildFieldParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		g := randomMultiGrid(rng)
		n := g.Rows * g.Cols
		ranges := g.Ranges()
		want := &VariationField{Rows: g.Rows, Cols: g.Cols,
			H: make([]float64, n), V: make([]float64, n), valid: make([]bool, n), spans: rangeSpans(ranges)}
		want.fillRows(g, ranges, 0, g.Rows)
		for _, w := range []int{1, 2, 3, 8} {
			if got := BuildField(g, w); !reflect.DeepEqual(want, got) {
				t.Fatalf("BuildField(workers=%d) differs from one sweep over all rows", w)
			}
		}
	}
}

// TestBuildFieldMatchesNormalizedReference: BuildField normalizes each row
// as it reads it, and must store the bits the normalized copy gave —
// Normalized() followed by one cellVariation per pair (referenceField) — in
// H, V and the validity, at Workers 1, 2, 4 and 0. A grid that is
// normalized already must give the same field. The grids cover every
// Algorithm 2 branch (the fan-out grids: Sum, Average and integer,
// categorical), a constant attribute (with a NaN, which its zero span maps
// to 0), null–null and null–valid pairs, valid cells holding NaN,
// categorical codes that normalizing would merge, single rows and columns,
// and grids with no rows or no columns.
func TestBuildFieldMatchesNormalizedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	noise := func(int, int) float64 { return float64(rng.Intn(9)) }
	nulls := func(r, c int) float64 { // 3×2 null blocks: null–null and null–valid pairs
		if (r/3+c/2)%3 == 0 {
			return math.NaN() // null in patternGrid
		}
		return noise(r, c)
	}
	type namedGrid struct {
		name string
		g    *grid.Grid
	}
	cases := []namedGrid{
		{"constant-attribute", constantAttrGrid(rng, 13, 11)},
		{"nulls", patternGrid(12, 10, nulls)},
		{"nan-cell", nanCellGrid(rng, 9, 8)},
		{"wide-codes", wideCodeGrid(rng, 10, 9)},
		{"1x37", patternGrid(1, 37, nulls)},
		{"37x1", patternGrid(37, 1, nulls)},
		{"1x1", patternGrid(1, 1, noise)},
		{"0x5", grid.New(0, 5, randomMultiGrid(rng).Attrs)},
		{"5x0", grid.New(5, 0, randomMultiGrid(rng).Attrs)},
	}
	for i, g := range fanOutGrids() {
		cases = append(cases, namedGrid{fmt.Sprintf("fan-out-%d", i), g})
	}
	for i := range 10 {
		cases = append(cases, namedGrid{fmt.Sprintf("random-%d", i), randomMultiGrid(rng)})
	}
	for _, tc := range cases {
		want := referenceField(tc.g)
		norm, _ := tc.g.Normalized()
		for _, w := range []int{1, 2, 4, 0} {
			if msg := fieldBitsDiffer(want, BuildField(tc.g, w)); msg != "" {
				t.Errorf("%s, workers %d: %s", tc.name, w, msg)
			}
			if msg := fieldBitsDiffer(want, BuildField(norm, w)); msg != "" {
				t.Errorf("%s normalized, workers %d: %s", tc.name, w, msg)
			}
		}
	}
}

// referenceField is the field as it was built from a normalized copy: the
// grid's Normalized() and one cellVariation per 4-adjacent pair, +Inf past
// the last column and row.
func referenceField(g *grid.Grid) *VariationField {
	norm, _ := g.Normalized()
	n := g.Rows * g.Cols
	f := &VariationField{Rows: g.Rows, Cols: g.Cols,
		H: make([]float64, n), V: make([]float64, n), valid: make([]bool, n)}
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			idx := r*g.Cols + c
			f.valid[idx] = norm.Valid(r, c)
			f.H[idx], f.V[idx] = math.Inf(1), math.Inf(1)
			if c+1 < g.Cols {
				f.H[idx] = cellVariation(norm, r, c, r, c+1)
			}
			if r+1 < g.Rows {
				f.V[idx] = cellVariation(norm, r, c, r+1, c)
			}
		}
	}
	return f
}

// fieldBitsDiffer returns the first place where got's dimensions, H and V
// bits or validity differ from want's, or "".
func fieldBitsDiffer(want, got *VariationField) string {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Sprintf("%d×%d field, want %d×%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.H {
		if math.Float64bits(got.H[i]) != math.Float64bits(want.H[i]) {
			return fmt.Sprintf("H[%d] = %v (%#x), want %v (%#x)", i, got.H[i], math.Float64bits(got.H[i]), want.H[i], math.Float64bits(want.H[i]))
		}
		if math.Float64bits(got.V[i]) != math.Float64bits(want.V[i]) {
			return fmt.Sprintf("V[%d] = %v (%#x), want %v (%#x)", i, got.V[i], math.Float64bits(got.V[i]), want.V[i], math.Float64bits(want.V[i]))
		}
		if got.valid[i] != want.valid[i] {
			return fmt.Sprintf("valid[%d] = %v, want %v", i, got.valid[i], want.valid[i])
		}
	}
	return ""
}

// constantAttrGrid is a rows×cols grid of three numeric attributes, the
// middle one the same value in every valid cell but one, which holds NaN,
// with some null cells.
func constantAttrGrid(rng *rand.Rand, rows, cols int) *grid.Grid {
	g := grid.New(rows, cols, []grid.Attribute{
		{Name: "a", Agg: grid.Sum}, {Name: "const", Agg: grid.Average}, {Name: "b", Agg: grid.Average}})
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Intn(6) > 0 {
				g.SetVector(r, c, []float64{float64(rng.Intn(30)), 4.25, rng.Float64()})
			}
		}
	}
	g.SetVector(rows/2, cols/2, []float64{3, math.NaN(), 0.5})
	return g
}

// wideCodeGrid is a rows×cols grid of a numeric attribute beside a
// categorical one whose codes are −2⁶², 0 and 1. Their span rounds to 2⁶²,
// so normalizing the codes would map 0 and 1 to the same value; they must
// be copied as they are.
func wideCodeGrid(rng *rand.Rand, rows, cols int) *grid.Grid {
	g := grid.New(rows, cols, []grid.Attribute{
		{Name: "a", Agg: grid.Average}, {Name: "cat", Agg: grid.Average, Categorical: true}})
	codes := []float64{-math.Ldexp(1, 62), 0, 1}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.SetVector(r, c, []float64{rng.Float64(), codes[rng.Intn(len(codes))]})
		}
	}
	return g
}

// nanCellGrid is a rows×cols grid of two numeric attributes and a
// categorical one in which a few valid cells hold NaN in an attribute,
// beside null cells.
func nanCellGrid(rng *rand.Rand, rows, cols int) *grid.Grid {
	g := grid.New(rows, cols, []grid.Attribute{
		{Name: "a", Agg: grid.Average}, {Name: "b", Agg: grid.Sum}, {Name: "cat", Agg: grid.Average, Categorical: true}})
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Intn(7) == 0 {
				continue
			}
			fv := []float64{rng.Float64() * 10, float64(rng.Intn(20)), float64(rng.Intn(3))}
			if rng.Intn(6) == 0 {
				fv[rng.Intn(3)] = math.NaN()
			}
			g.SetVector(r, c, fv)
		}
	}
	return g
}

// TestLadderFromFieldMatchesHeapReference rebuilds the ladder the way the
// seed's container/heap implementation did and checks the radix sort and
// dedupe that replaced it yields the identical rung sequence.
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

// TestLadderRadixMatchesSort checks the radix-sorted ladder bit for bit
// against slices.Sort plus the v > prev dedupe, on value sets up to 300,002
// values that mix duplicates, +0, subnormals, both sides of exponent
// boundaries, 1.0, negatives, NaNs of either sign and payload, and ±Inf.
func TestLadderRadixMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var edges []float64
	for _, e := range []int{-1074, -1022, -1021, -600, -52, -11, -1, 0, 1, 11, 52, 600, 1023} {
		p := math.Ldexp(1, e)
		edges = append(edges, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	specials := []float64{
		0, 1, math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.MaxFloat64, -1, -2.5, -math.SmallestNonzeroFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN payload
		math.Float64frombits(0xfff8000000000000), // negative quiet NaN
		math.Float64frombits(0xfff0000000000abc), // negative NaN, other payload
	}
	draws := []func() float64{
		func() float64 { return rng.Float64() }, // the variations of a normalized grid
		func() float64 { return edges[rng.Intn(len(edges))] },
		func() float64 { return specials[rng.Intn(len(specials))] },
		func() float64 { return float64(rng.Intn(50)) / 49 }, // heavy duplicates
		func() float64 { return 1 + rng.Float64() },          // one exponent: high passes skip
		func() float64 { return -rng.ExpFloat64() },
		func() float64 { return math.Float64frombits(rng.Uint64()) },
	}
	for _, n := range []int{0, 1, 2, 3, 17, 1000, 65_537, 150_001} {
		for trial := 0; trial < 4; trial++ {
			mix := draws[:1+rng.Intn(len(draws))]
			if trial == 3 {
				mix = draws[4:5]
			}
			f := &VariationField{H: make([]float64, n), V: make([]float64, n)}
			for i := range f.H {
				f.H[i] = mix[rng.Intn(len(mix))]()
				f.V[i] = mix[rng.Intn(len(mix))]()
			}
			want := sortDedupe(append(append([]float64(nil), f.H...), f.V...))
			got := f.Ladder().Values()
			if len(got) != len(want) {
				t.Fatalf("n=%d trial %d: %d rungs, want %d", 2*n, trial, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d trial %d: rung %d = %v (%#x), want %v (%#x)",
						2*n, trial, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// sortDedupe is the ladder as the comparison sort built it: drop +Inf, sort
// (NaN first), keep each value greater than the last kept, starting at -Inf.
func sortDedupe(vals []float64) []float64 {
	vals = slices.DeleteFunc(vals, func(v float64) bool { return math.IsInf(v, 1) })
	slices.Sort(vals)
	out := vals[:0]
	prev := math.Inf(-1)
	for _, v := range vals {
		if v > prev {
			out = append(out, v)
			prev = v
		}
	}
	return out
}
