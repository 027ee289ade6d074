package weights

import (
	"math"
	"testing"
)

func TestLocalMoransIDetectsClusters(t *testing.T) {
	// An 8x8 grid with a hot 3x3 block in the corner: cells inside the block
	// (and deep in the cold region) get positive LISA; boundary cells between
	// regimes get negative or small values.
	w := RookNeighbors(8, 8)
	x := make([]float64, 64)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			x[r*8+c] = 100
		}
	}
	lisa, err := w.LocalMoransI(x)
	if err != nil {
		t.Fatal(err)
	}
	if lisa[0] <= 0 { // corner of the hot block: high-high
		t.Errorf("hot-block LISA = %v, want positive", lisa[0])
	}
	if lisa[7*8+7] <= 0 { // far cold corner: low-low
		t.Errorf("cold-corner LISA = %v, want positive", lisa[63])
	}
	// A hot cell adjacent to the cold region: its lag mixes, LISA lower than
	// the interior hot cell.
	if lisa[2*8+2] >= lisa[0] {
		t.Errorf("boundary LISA %v should be below interior %v", lisa[2*8+2], lisa[0])
	}
}

func TestLocalMoransIErrors(t *testing.T) {
	w := RookNeighbors(2, 2)
	if _, err := w.LocalMoransI([]float64{1}); err == nil {
		t.Error("want length error")
	}
	if _, err := w.LocalMoransI([]float64{3, 3, 3, 3}); err == nil {
		t.Error("want constant error")
	}
}

func TestLocalMoransIAveragesToGlobal(t *testing.T) {
	// Mean of local Moran values tracks global Moran's I (the LISA
	// decomposition). The identity is exact only when both use the same
	// weight normalization; our local statistic row-standardizes while the
	// global Eq. 4 uses binary weights, so boundary-degree effects leave a
	// modest gap on small lattices.
	w := RookNeighbors(6, 6)
	x := make([]float64, 36)
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			x[r*6+c] = float64(r*r + c)
		}
	}
	lisa, err := w.LocalMoransI(x)
	if err != nil {
		t.Fatal(err)
	}
	global, err := w.MoransI(x)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, v := range lisa {
		mean += v
	}
	mean /= float64(len(lisa))
	if math.Abs(mean-global) > 0.15 {
		t.Errorf("mean LISA %v vs global %v", mean, global)
	}
	if (mean > 0) != (global > 0) {
		t.Errorf("mean LISA %v and global %v disagree in sign", mean, global)
	}
}

func TestGetisOrdGStarHotCold(t *testing.T) {
	w := RookNeighbors(8, 8)
	x := make([]float64, 64)
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			x[r*8+c] = 100
		}
	}
	g, err := w.GetisOrdGStar(x)
	if err != nil {
		t.Fatal(err)
	}
	if g[1*8+1] < 1 { // interior of the hot block
		t.Errorf("hot-spot G* = %v, want strongly positive", g[9])
	}
	if g[7*8+7] > 0 { // cold corner
		t.Errorf("cold-spot G* = %v, want negative", g[63])
	}
}

func TestGetisOrdGStarErrors(t *testing.T) {
	w := RookNeighbors(2, 2)
	if _, err := w.GetisOrdGStar([]float64{1}); err == nil {
		t.Error("want length error")
	}
	if _, err := w.GetisOrdGStar([]float64{5, 5, 5, 5}); err == nil {
		t.Error("want constant error")
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
