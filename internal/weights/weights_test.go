package weights

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// grid2x2 is the rook adjacency of a 2x2 grid: 0-1, 0-2, 1-3, 2-3.
func grid2x2() *W {
	return New([][]int{{1, 2}, {0, 3}, {0, 3}, {1, 2}})
}

func TestValidate(t *testing.T) {
	if err := grid2x2().Validate(); err != nil {
		t.Errorf("valid W rejected: %v", err)
	}
	if err := New([][]int{{5}}).Validate(); err == nil {
		t.Error("out-of-range neighbor accepted")
	}
	if err := New([][]int{{0}}).Validate(); err == nil {
		t.Error("self-loop accepted")
	}
	if err := New([][]int{{1}, {}}).Validate(); err == nil {
		t.Error("asymmetric W accepted")
	}
}

func TestTotalWeight(t *testing.T) {
	if got := grid2x2().TotalWeight(); got != 8 {
		t.Errorf("TotalWeight = %v, want 8 (4 pairs × 2)", got)
	}
}

func TestLag(t *testing.T) {
	w := grid2x2()
	lag, err := w.Lag([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2.5, 2.5, 2.5, 2.5}
	for i := range want {
		if lag[i] != want[i] {
			t.Errorf("lag[%d] = %v, want %v", i, lag[i], want[i])
		}
	}
	if _, err := w.Lag([]float64{1}); err == nil {
		t.Error("want length mismatch error")
	}
}

func TestLagIsland(t *testing.T) {
	w := New([][]int{{}, {}})
	lag, err := w.Lag([]float64{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if lag[0] != 0 || lag[1] != 0 {
		t.Errorf("island lag = %v, want zeros", lag)
	}
}

func TestMoransIPositiveAutocorrelation(t *testing.T) {
	// A smooth gradient has strong positive spatial autocorrelation.
	w := RookNeighbors(8, 8)
	x := make([]float64, 64)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			x[r*8+c] = float64(r + c)
		}
	}
	i, err := w.MoransI(x)
	if err != nil {
		t.Fatal(err)
	}
	if i < 0.5 {
		t.Errorf("Moran's I = %v, want strongly positive for a gradient", i)
	}
}

func TestMoransINegativeAutocorrelation(t *testing.T) {
	// A checkerboard has strong negative autocorrelation.
	w := RookNeighbors(8, 8)
	x := make([]float64, 64)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			if (r+c)%2 == 0 {
				x[r*8+c] = 1
			}
		}
	}
	i, err := w.MoransI(x)
	if err != nil {
		t.Fatal(err)
	}
	if i > -0.5 {
		t.Errorf("Moran's I = %v, want strongly negative for a checkerboard", i)
	}
}

func TestMoransIErrors(t *testing.T) {
	w := grid2x2()
	if _, err := w.MoransI([]float64{1}); err == nil {
		t.Error("want length error")
	}
	if _, err := w.MoransI([]float64{3, 3, 3, 3}); err == nil {
		t.Error("want constant-attribute error")
	}
	if _, err := New([][]int{{}, {}}).MoransI([]float64{1, 2}); err == nil {
		t.Error("want no-pairs error")
	}
}

func TestGearysCDirections(t *testing.T) {
	w := RookNeighbors(8, 8)
	grad := make([]float64, 64)
	checker := make([]float64, 64)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			grad[r*8+c] = float64(r + c)
			if (r+c)%2 == 0 {
				checker[r*8+c] = 1
			}
		}
	}
	cg, err := w.GearysC(grad)
	if err != nil {
		t.Fatal(err)
	}
	if cg >= 1 {
		t.Errorf("Geary's C = %v for gradient, want < 1", cg)
	}
	cc, err := w.GearysC(checker)
	if err != nil {
		t.Fatal(err)
	}
	if cc <= 1 {
		t.Errorf("Geary's C = %v for checkerboard, want > 1", cc)
	}
}

func TestMoranGearyConsistencyProperty(t *testing.T) {
	// Moran's I and Geary's C point the same way: I > 0 typically pairs with
	// C < 1 and vice versa on smooth vs. alternating fields. Check the weaker
	// invariant that both are finite on random fields.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := RookNeighbors(5, 5)
		x := make([]float64, 25)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		mi, err1 := w.MoransI(x)
		gc, err2 := w.GearysC(x)
		if err1 != nil || err2 != nil {
			return false
		}
		return !math.IsNaN(mi) && !math.IsInf(mi, 0) && !math.IsNaN(gc) && gc >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRookNeighborCounts(t *testing.T) {
	w := RookNeighbors(3, 3)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// Center cell: 4 neighbors; corner: 2.
	if len(w.Neighbors[4]) != 4 || len(w.Neighbors[0]) != 2 {
		t.Errorf("center %d, corner %d neighbors, want 4 and 2", len(w.Neighbors[4]), len(w.Neighbors[0]))
	}
}
