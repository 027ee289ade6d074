package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spatialrepart/internal/grid"
)

func randomUniGrid(seed int64, rows, cols int, nullFrac float64) *grid.Grid {
	rng := rand.New(rand.NewSource(seed))
	g := grid.New(rows, cols, uniAttrs())
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < nullFrac {
				continue
			}
			g.Set(r, c, 0, float64(rng.Intn(50)))
		}
	}
	return g
}

func TestRepartitionThresholdValidation(t *testing.T) {
	g := randomUniGrid(1, 3, 3, 0)
	if _, err := Repartition(g, Options{Threshold: -0.1}); err == nil {
		t.Error("want error for negative threshold")
	}
	if _, err := Repartition(g, Options{Threshold: 1.5}); err == nil {
		t.Error("want error for threshold > 1")
	}
}

func TestRepartitionUnknownSchedule(t *testing.T) {
	g := randomUniGrid(1, 3, 3, 0)
	if _, err := Repartition(g, Options{Threshold: 0.1, Schedule: Schedule(99)}); err == nil {
		t.Error("want error for unknown schedule")
	}
}

func TestRepartitionRespectsThreshold(t *testing.T) {
	f := func(seed int64) bool {
		g := randomUniGrid(seed, 6, 6, 0.1)
		for _, theta := range []float64{0, 0.05, 0.1, 0.15, 0.5} {
			rp, err := Repartition(g, Options{Threshold: theta})
			if err != nil {
				return false
			}
			if rp.IFL > theta+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRepartitionReducesCells(t *testing.T) {
	// A smooth gradient grid merges heavily even at modest thresholds.
	g := grid.New(10, 10, uniAttrs())
	for r := 0; r < 10; r++ {
		for c := 0; c < 10; c++ {
			g.Set(r, c, 0, float64(100+r+c))
		}
	}
	rp, err := Repartition(g, Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rp.NumGroups() >= g.NumCells() {
		t.Errorf("no reduction: %d groups for %d cells", rp.NumGroups(), g.NumCells())
	}
	if rp.IFL > 0.1 {
		t.Errorf("IFL = %v exceeds threshold", rp.IFL)
	}
}

func TestRepartitionMonotoneInThreshold(t *testing.T) {
	g := randomUniGrid(7, 8, 8, 0.05)
	prev := math.MaxInt
	for _, theta := range []float64{0.02, 0.05, 0.1, 0.2, 0.4} {
		rp, err := Repartition(g, Options{Threshold: theta})
		if err != nil {
			t.Fatal(err)
		}
		if rp.NumGroups() > prev {
			t.Errorf("groups increased from %d to %d as threshold grew to %v", prev, rp.NumGroups(), theta)
		}
		prev = rp.NumGroups()
	}
}

func TestRepartitionZeroThresholdKeepsIFLZero(t *testing.T) {
	g := uniGrid([][]float64{
		{5, 5, 9},
		{5, 5, 8},
	})
	rp, err := Repartition(g, Options{Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rp.IFL != 0 {
		t.Errorf("IFL = %v, want 0", rp.IFL)
	}
	// The equal-valued 2x2 block still merges: zero loss.
	if rp.NumGroups() >= 6 {
		t.Errorf("groups = %d, expected merging of the constant block", rp.NumGroups())
	}
}

func TestScheduleGeometricMatchesExact(t *testing.T) {
	f := func(seed int64) bool {
		g := randomUniGrid(seed, 7, 7, 0.1)
		for _, theta := range []float64{0.05, 0.15} {
			exact, err1 := Repartition(g, Options{Threshold: theta, Schedule: ScheduleExact})
			geom, err2 := Repartition(g, Options{Threshold: theta, Schedule: ScheduleGeometric})
			if err1 != nil || err2 != nil {
				return false
			}
			// Both must respect the threshold; with IFL monotone in the rung
			// they accept the same rung and the same partition size.
			if geom.IFL > theta || exact.IFL > theta {
				return false
			}
			if geom.MinAdjVariation != exact.MinAdjVariation {
				// Non-monotone IFL can legitimately make them differ, but the
				// geometric result must never be worse than exact's bound.
				if geom.NumGroups() > exact.NumGroups() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestRepartitionGeometricFewerIterations(t *testing.T) {
	g := randomUniGrid(11, 12, 12, 0)
	exact, err := Repartition(g, Options{Threshold: 0.1, Schedule: ScheduleExact})
	if err != nil {
		t.Fatal(err)
	}
	geom, err := Repartition(g, Options{Threshold: 0.1, Schedule: ScheduleGeometric})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Iterations > 8 && geom.Iterations >= exact.Iterations {
		t.Errorf("geometric (%d iterations) should beat exact (%d)", geom.Iterations, exact.Iterations)
	}
}

func TestRepartitionSingleCellGrid(t *testing.T) {
	g := grid.New(1, 1, uniAttrs())
	g.Set(0, 0, 0, 42)
	rp, err := Repartition(g, Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rp.NumGroups() != 1 || rp.IFL != 0 {
		t.Errorf("1x1 repartition: groups=%d IFL=%v", rp.NumGroups(), rp.IFL)
	}
}

func TestRepartitionAllNullGrid(t *testing.T) {
	g := grid.New(3, 3, uniAttrs())
	rp, err := Repartition(g, Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rp.IFL != 0 {
		t.Errorf("all-null IFL = %v, want 0", rp.IFL)
	}
	if rp.ValidGroups() != 0 {
		t.Errorf("valid groups = %d, want 0", rp.ValidGroups())
	}
}

func TestRepartitionedCounts(t *testing.T) {
	g := uniGrid([][]float64{
		{1, 1},
		{math.NaN(), math.NaN()},
	})
	rp, err := Repartition(g, Options{Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if rp.ValidGroups() >= rp.NumGroups() {
		t.Errorf("expected at least one null group: valid=%d total=%d", rp.ValidGroups(), rp.NumGroups())
	}
	checkPartitionInvariants(t, g, rp.Partition)
}

// TestRepartitionMultivariate verifies the multivariate path end to end.
func TestRepartitionMultivariate(t *testing.T) {
	attrs := []grid.Attribute{
		{Name: "pickups", Agg: grid.Sum, Integer: true},
		{Name: "fare", Agg: grid.Average},
	}
	rng := rand.New(rand.NewSource(5))
	g := grid.New(8, 8, attrs)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			base := float64(r + c)
			g.SetVector(r, c, []float64{base + float64(rng.Intn(3)), 10*base + rng.Float64()})
		}
	}
	rp, err := Repartition(g, Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rp.IFL > 0.1 {
		t.Errorf("IFL = %v exceeds threshold", rp.IFL)
	}
	if rp.NumGroups() >= g.NumCells() {
		t.Error("multivariate grid failed to reduce at all")
	}
	for gi, cg := range rp.Partition.Groups {
		if !cg.Null && len(rp.Features[gi]) != 2 {
			t.Fatalf("group %d feature arity %d", gi, len(rp.Features[gi]))
		}
	}
}
