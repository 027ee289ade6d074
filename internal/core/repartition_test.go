package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"testing/quick"

	"spatialrepart/internal/datagen"
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

// TestScheduleGeometricMatchesExact holds the two schedules to the order
// SearchLadder promises. Exact passed every rung below its first failure and
// accepts the last of them; geometric's answer r passed and r + 1 failed, so
// r is never below exact's rung and geometric's accepted variation is at
// least exact's. Where they accept the same rung they return the same
// partition. Nothing more is promised: IFL and Algorithm 1's group count
// are not monotone in the rung, so a coarser rung may hold more groups.
func TestScheduleGeometricMatchesExact(t *testing.T) {
	// Seed 1541847098634201809 at θ 0.15: exact accepts variation 0.2857
	// with 31 groups, geometric accepts 0.3061 with 32.
	if msg := scheduleMismatch(1541847098634201809); msg != "" {
		t.Errorf("seed 1541847098634201809: %s", msg)
	}
	f := func(seed int64) bool {
		msg := scheduleMismatch(seed)
		if msg != "" {
			t.Logf("seed %d: %s", seed, msg)
		}
		return msg == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// scheduleMismatch repartitions the 7×7 grid of seed under both schedules
// and returns how their answers break the order SearchLadder promises, or
// "" when they keep it.
func scheduleMismatch(seed int64) string {
	g := randomUniGrid(seed, 7, 7, 0.1)
	for _, theta := range []float64{0.05, 0.15} {
		exact, err := Repartition(g, Options{Threshold: theta, Schedule: ScheduleExact})
		if err != nil {
			return err.Error()
		}
		geom, err := Repartition(g, Options{Threshold: theta, Schedule: ScheduleGeometric})
		if err != nil {
			return err.Error()
		}
		same := math.Float64bits(geom.MinAdjVariation) == math.Float64bits(exact.MinAdjVariation)
		switch {
		case geom.IFL > theta || exact.IFL > theta:
			return fmt.Sprintf("θ %v: IFL exact %v, geometric %v", theta, exact.IFL, geom.IFL)
		case geom.MinAdjVariation < exact.MinAdjVariation:
			return fmt.Sprintf("θ %v: geometric accepts variation %v below exact's %v", theta, geom.MinAdjVariation, exact.MinAdjVariation)
		case same && (geom.NumGroups() != exact.NumGroups() || math.Float64bits(geom.IFL) != math.Float64bits(exact.IFL)):
			return fmt.Sprintf("θ %v: at one rung, exact has %d groups and IFL %v, geometric %d and %v",
				theta, exact.NumGroups(), exact.IFL, geom.NumGroups(), geom.IFL)
		}
	}
	return ""
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

// TestRepartitionZeroSizeGrids: grid.New and grid.ReadCSV accept a grid
// with no rows or no columns. It has no adjacent pair, so its ladder is
// empty and Repartition returns the identity partition, which has no group.
func TestRepartitionZeroSizeGrids(t *testing.T) {
	attrs := []grid.Attribute{{Name: "a", Agg: grid.Sum}, {Name: "b", Agg: grid.Average}}
	for _, dims := range [][2]int{{0, 5}, {5, 0}, {0, 0}} {
		for _, w := range []int{1, 4} {
			g := grid.New(dims[0], dims[1], attrs)
			rp, err := Repartition(g, Options{Threshold: 0.1, Schedule: ScheduleGeometric, Workers: w})
			if err != nil {
				t.Fatalf("%d×%d, workers %d: %v", dims[0], dims[1], w, err)
			}
			if len(rp.Partition.Groups) != 0 || rp.IFL != 0 || rp.MinAdjVariation != -1 || rp.Iterations != 0 {
				t.Errorf("%d×%d, workers %d: %d groups, IFL %v, variation %v, %d iterations; want the empty identity result",
					dims[0], dims[1], w, len(rp.Partition.Groups), rp.IFL, rp.MinAdjVariation, rp.Iterations)
			}
		}
	}
}

// TestRepartitionBatchGridPinned pins the deterministic proxies of the
// benchmark's batch run (taxi-multi 1024², seed 42, θ 0.1, geometric): the
// number of rung evaluations, the accepted rung and its group count, the
// memo's hits and groups evaluated, and the accepted IFL's bits. A change
// to the rung loop that claims the same search and the same hits must leave
// every one of them as it is. It also bounds the bytes one Workers 1 run
// allocates, counted with the collector off so that no cycle's own
// allocations land in the count: 207.8 MB while the run kept a normalized
// copy of the grid and a feature slot per cell and attribute, 132.7 MB
// without them. The race detector's instrumentation makes slices.Grow
// allocate its operand as well (139.7 MB), so race builds skip the bound.
func TestRepartitionBatchGridPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and repartitions a 1024² grid")
	}
	g := datagen.TaxiTripsMulti(42, 1024, 1024).Grid
	rp, rep, err := RepartitionWithReport(g, Options{Threshold: 0.1, Schedule: ScheduleGeometric})
	if err != nil {
		t.Fatal(err)
	}
	accepted := -1
	for _, e := range rep.Trajectory {
		if e.Pass {
			accepted = max(accepted, e.Rung)
		}
	}
	got := []int{rp.Iterations, rep.Evaluations, accepted, len(rp.Partition.Groups), rep.MemoHits, rep.GroupsEvaluated}
	want := []int{18, 18, 1277538, 302227, 4784359, 5565261}
	if !slices.Equal(got, want) {
		t.Errorf("iterations, evaluations, accepted rung, groups, memo hits, groups evaluated = %v, want %v", got, want)
	}
	if bits := math.Float64bits(rp.IFL); bits != 0x3fb999990f507c1e {
		t.Errorf("IFL %v has bits %#x, want 0x3fb999990f507c1e", rp.IFL, bits)
	}

	if raceEnabled {
		return
	}
	const maxAlloc = 140_000_000
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	seq, err := Repartition(g, Options{Threshold: 0.1, Schedule: ScheduleGeometric, Workers: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("one Workers 1 run allocated %.1f MB", float64(alloc)/1e6)
	if alloc > maxAlloc {
		t.Errorf("one Workers 1 run allocated %d bytes, want at most %d", alloc, maxAlloc)
	}
	if len(seq.Partition.Groups) != len(rp.Partition.Groups) || seq.IFL != rp.IFL {
		t.Errorf("Workers 1: %d groups at IFL %v, want %d at %v", len(seq.Partition.Groups), seq.IFL, len(rp.Partition.Groups), rp.IFL)
	}
}
