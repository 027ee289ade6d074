package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"spatialrepart/internal/grid"
)

func uniAttrs() []grid.Attribute {
	return []grid.Attribute{{Name: "v", Agg: grid.Average, Integer: true}}
}

// uniGrid builds a univariate grid from a dense matrix of values.
// Use math.NaN() to mark a null cell.
func uniGrid(vals [][]float64) *grid.Grid {
	g := grid.New(len(vals), len(vals[0]), uniAttrs())
	for r, row := range vals {
		for c, v := range row {
			if !math.IsNaN(v) {
				g.Set(r, c, 0, v)
			}
		}
	}
	return g
}

func TestVariationEq1(t *testing.T) {
	// Eq. 1: mean absolute per-attribute difference.
	attrs := []grid.Attribute{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	got := VariationAttrs(attrs, []float64{1, 2, 3}, []float64{2, 0, 3})
	if want := (1.0 + 2.0 + 0.0) / 3.0; got != want {
		t.Errorf("VariationAttrs = %v, want %v", got, want)
	}
	if VariationAttrs(nil, nil, nil) != 0 {
		t.Error("VariationAttrs of empty vectors should be 0")
	}
}

func TestCellVariationNullRules(t *testing.T) {
	g := uniGrid([][]float64{
		{1, math.NaN()},
		{math.NaN(), math.NaN()},
	})
	n, _ := g.Normalized()
	if v := cellVariation(n, 0, 1, 1, 1); v != 0 {
		t.Errorf("null-null variation = %v, want 0", v)
	}
	if v := cellVariation(n, 0, 0, 0, 1); !math.IsInf(v, 1) {
		t.Errorf("null-valid variation = %v, want +Inf", v)
	}
}

// TestLadderPaperExample2 reproduces Example 2: with an attribute span of 35
// and adjacent raw differences of 0 and 1, the first two rungs of the ladder
// are 0 and 1/35 = 0.02857143.
func TestLadderPaperExample2(t *testing.T) {
	g := uniGrid([][]float64{
		{24, 23, 58}, // (0,0)-(0,1) differ by 1; 58 stretches the range to 35
		{30, 30, 40}, // (1,0)-(1,1) differ by 0
	})
	n, _ := g.Normalized()
	l := BuildLadder(n)
	if l.Len() < 2 {
		t.Fatalf("ladder too short: %d", l.Len())
	}
	if l.Rung(0) != 0 {
		t.Errorf("rung 0 = %v, want 0", l.Rung(0))
	}
	if want := 1.0 / 35.0; math.Abs(l.Rung(1)-want) > 1e-9 {
		t.Errorf("rung 1 = %v, want %v (0.02857143)", l.Rung(1), want)
	}
}

func TestLadderExcludesNullValidPairs(t *testing.T) {
	g := uniGrid([][]float64{
		{1, math.NaN()},
		{2, 3},
	})
	n, _ := g.Normalized()
	l := BuildLadder(n)
	for _, v := range l.Values() {
		if math.IsInf(v, 1) {
			t.Fatal("ladder contains an infinite (null-valid) variation")
		}
	}
}

func TestLadderSortedDistinct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 2+rng.Intn(5), 2+rng.Intn(5)
		vals := make([][]float64, rows)
		for r := range vals {
			vals[r] = make([]float64, cols)
			for c := range vals[r] {
				if rng.Float64() < 0.15 {
					vals[r][c] = math.NaN()
				} else {
					vals[r][c] = float64(rng.Intn(20))
				}
			}
		}
		g := uniGrid(vals)
		n, _ := g.Normalized()
		l := BuildLadder(n)
		v := l.Values()
		if !sort.Float64sAreSorted(v) {
			return false
		}
		for i := 1; i < len(v); i++ {
			if v[i] == v[i-1] {
				return false // must be distinct
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLadderSingleCell(t *testing.T) {
	g := uniGrid([][]float64{{5}})
	n, _ := g.Normalized()
	if l := BuildLadder(n); l.Len() != 0 {
		t.Errorf("1x1 grid ladder length = %d, want 0", l.Len())
	}
}
