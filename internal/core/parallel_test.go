package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spatialrepart/internal/datagen"
	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
)

// equalRepartitioned compares every caller-visible field of two results.
// Byte-identical means exactly that: IFL and Features must match bitwise,
// not within a tolerance.
func equalRepartitioned(t *testing.T, label string, a, b *Repartitioned) {
	t.Helper()
	if !reflect.DeepEqual(a.Partition, b.Partition) {
		t.Errorf("%s: partitions differ", label)
	}
	if !reflect.DeepEqual(a.Features, b.Features) {
		t.Errorf("%s: features differ", label)
	}
	if a.IFL != b.IFL {
		t.Errorf("%s: IFL %v vs %v", label, a.IFL, b.IFL)
	}
	if a.MinAdjVariation != b.MinAdjVariation {
		t.Errorf("%s: MinAdjVariation %v vs %v", label, a.MinAdjVariation, b.MinAdjVariation)
	}
	if a.Iterations != b.Iterations {
		t.Errorf("%s: Iterations %d vs %d", label, a.Iterations, b.Iterations)
	}
}

// TestRepartitionWorkersByteIdentical: for both schedules and a spread of
// thresholds, Workers > 1 must return exactly the Workers = 1 result —
// partition, features, IFL, accepted rung, and iteration count.
func TestRepartitionWorkersByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	schedules := []Schedule{ScheduleExact, ScheduleGeometric}
	thresholds := []float64{0, 0.02, 0.1, 0.3, 1}
	for trial := 0; trial < 25; trial++ {
		g := randomMultiGrid(rng)
		for _, sched := range schedules {
			for _, th := range thresholds {
				seq, err := Repartition(g, Options{Threshold: th, Schedule: sched, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{2, 3, 7} {
					par, err := Repartition(g, Options{Threshold: th, Schedule: sched, Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					equalRepartitioned(t, schedLabel(sched, th, w), seq, par)
				}
			}
		}
	}
	for gi, g := range fanOutGrids() {
		for _, tc := range fanOutCases {
			seq, rep, err := RepartitionWithReport(g, Options{Threshold: tc.th, Schedule: tc.sched, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			requireFanOut(t, gi, rep)
			for _, w := range []int{2, 4, 0} {
				par, err := Repartition(g, Options{Threshold: tc.th, Schedule: tc.sched, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				equalRepartitioned(t, "fan-out "+schedLabel(tc.sched, tc.th, w), seq, par)
			}
		}
	}
}

// TestRepartitionMemoMatchesRecompute: the rung memo must be invisible in
// the result. Every evaluated rung's IFL equals a fresh extract, Algorithm 2
// and IFL pass bit for bit; the accepted rung's features equal a fresh
// Algorithm 2 pass over its partition; and the memo's hit and group counts
// are the same for every Workers value — with hits, so the memo really
// served rectangles.
func TestRepartitionMemoMatchesRecompute(t *testing.T) {
	for gi, g := range fanOutGrids() {
		norm, _ := g.Normalized()
		field := BuildField(norm)
		for _, tc := range fanOutCases {
			var ref *RunReport
			for _, w := range []int{1, 2, 4, 0} {
				label := fmt.Sprintf("grid %d %s", gi, schedLabel(tc.sched, tc.th, w))
				rp, rep, err := RepartitionWithReport(g, Options{Threshold: tc.th, Schedule: tc.sched, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if w == 1 {
					for _, e := range rep.Trajectory {
						part := ExtractField(field, e.MinAdjVariation)
						if loss := IFL(g, part, AllocateFeatures(g, part)); loss != e.IFL || len(part.Groups) != e.Groups {
							t.Errorf("%s rung %d: IFL %v over %d groups, recomputed %v over %d",
								label, e.Rung, e.IFL, e.Groups, loss, len(part.Groups))
						}
					}
				}
				if !reflect.DeepEqual(rp.Features, AllocateFeatures(g, rp.Partition)) {
					t.Errorf("%s: features differ from AllocateFeatures over the accepted partition", label)
				}
				if want := IFL(g, rp.Partition, rp.Features); rp.IFL != want {
					t.Errorf("%s: IFL %v, recomputed %v", label, rp.IFL, want)
				}
				if rep.MemoHits <= 0 || rep.MemoHits > rep.GroupsEvaluated {
					t.Errorf("%s: %d memo hits of %d groups evaluated", label, rep.MemoHits, rep.GroupsEvaluated)
				}
				if ref == nil {
					ref = rep
				} else if rep.MemoHits != ref.MemoHits || rep.GroupsEvaluated != ref.GroupsEvaluated {
					t.Errorf("%s: %d hits of %d groups, Workers 1 had %d of %d",
						label, rep.MemoHits, rep.GroupsEvaluated, ref.MemoHits, ref.GroupsEvaluated)
				}
			}
		}
	}
}

// TestRungLoopAllocs pins the rung loop's allocations: rungs reuse the
// partition and feature buffers of superseded rungs and the memo allocated
// once per run, so the allocations of a Repartition do not grow with the
// number of rungs it evaluates. An exact-schedule run that climbs well over
// 20 rungs must allocate no more than a geometric run of the same grid that
// evaluates far fewer. Workers is 1 because sharding starts goroutines,
// which allocate, per pass.
func TestRungLoopAllocs(t *testing.T) {
	g := fanOutGrids()[1]
	run := func(sched Schedule, th float64) (allocs float64, rungs int) {
		opts := Options{Threshold: th, Schedule: sched, Workers: 1}
		rp, err := Repartition(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := Repartition(g, opts); err != nil {
				t.Fatal(err)
			}
		}), rp.Iterations
	}
	exact, exactRungs := run(ScheduleExact, 0.0001)
	geo, geoRungs := run(ScheduleGeometric, 0.1)
	t.Logf("exact: %.0f allocations over %d rungs; geometric: %.0f over %d", exact, exactRungs, geo, geoRungs)
	if exactRungs < 20 || exactRungs < geoRungs+8 {
		t.Fatalf("exact run evaluated %d rungs, geometric %d: want at least 20 and 8 more than geometric", exactRungs, geoRungs)
	}
	if exact > geo {
		t.Errorf("exact run: %.0f allocations over %d rungs; geometric run: %.0f over %d; want no growth with rungs",
			exact, exactRungs, geo, geoRungs)
	}
}

// fanOutGrids returns grids on which every sharded step really splits: early
// rungs with more than 2·lossChunk groups, so the IFL reduction combines
// three or more chunks and AllocateFeaturesParallel (from 2·minParallelGroups
// groups up) leaves its sequential fallback. randomMultiGrid's 2–10 × 2–10
// grids clear neither bar.
func fanOutGrids() []*grid.Grid {
	return []*grid.Grid{
		datagen.TaxiTripsMulti(1, 48, 48).Grid,
		datagen.TaxiTripsMulti(2, 64, 64).Grid,
	}
}

// fanOutCases covers both schedules on fanOutGrids. The exact schedule
// climbs one rung per iteration, so its threshold is small enough to stop
// within a few dozen rungs and keep the race-detector runs short.
var fanOutCases = []struct {
	sched Schedule
	th    float64
}{
	{ScheduleExact, 0.0001},
	{ScheduleGeometric, 0.1},
}

// requireFanOut fails unless the report shows an evaluated rung large enough
// for the IFL reduction to span three or more chunks of lossChunk groups,
// which also makes AllocateFeaturesParallel shard.
func requireFanOut(t *testing.T, gi int, rep *RunReport) {
	t.Helper()
	for _, e := range rep.Trajectory {
		if e.Groups > 2*lossChunk {
			return
		}
	}
	t.Fatalf("fan-out grid %d (%s θ=%v): no evaluated rung reached %d groups: %+v",
		gi, rep.Schedule, rep.Threshold, 2*lossChunk+1, rep.Trajectory)
}

func schedLabel(s Schedule, th float64, w int) string {
	name := "exact"
	if s == ScheduleGeometric {
		name = "geometric"
	}
	return name + "/θ=" + formatFloat(th) + "/workers=" + string(rune('0'+w))
}

func formatFloat(f float64) string {
	switch f {
	case 0:
		return "0"
	case 1:
		return "1"
	default:
		return "frac"
	}
}

// TestSchedulesAgreeUnderMonotoneIFL: whenever the per-rung IFL curve is
// monotone non-decreasing (the documented condition for geometric ≡ exact),
// the two schedules must return the same partition and loss. Non-monotone
// curves are skipped — there the geometric search is allowed to land on a
// different rung.
func TestSchedulesAgreeUnderMonotoneIFL(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for trial := 0; trial < 80 && checked < 25; trial++ {
		g := randomMultiGrid(rng)
		norm, _ := g.Normalized()
		field := BuildField(norm)
		ladder := field.Ladder()
		monotone := true
		prev := math.Inf(-1)
		for i := 0; i < ladder.Len(); i++ {
			part := ExtractField(field, ladder.Rung(i))
			loss := IFL(g, part, AllocateFeatures(g, part))
			if loss < prev {
				monotone = false
				break
			}
			prev = loss
		}
		if !monotone {
			continue
		}
		checked++
		for _, th := range []float64{0, 0.05, 0.2, 1} {
			ex, err := Repartition(g, Options{Threshold: th, Schedule: ScheduleExact})
			if err != nil {
				t.Fatal(err)
			}
			ge, err := Repartition(g, Options{Threshold: th, Schedule: ScheduleGeometric})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ex.Partition, ge.Partition) {
				t.Errorf("trial %d θ=%v: schedules disagree on partition", trial, th)
			}
			if ex.IFL != ge.IFL {
				t.Errorf("trial %d θ=%v: IFL %v (exact) vs %v (geometric)", trial, th, ex.IFL, ge.IFL)
			}
			if ex.MinAdjVariation != ge.MinAdjVariation {
				t.Errorf("trial %d θ=%v: accepted rung %v vs %v", trial, th, ex.MinAdjVariation, ge.MinAdjVariation)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no monotone-IFL grids generated; test is vacuous")
	}
}

// TestAllocateFeaturesParallelBitIdentical: group allocation is embarrassingly
// parallel (groups are independent), so the sharded variant must be bitwise
// equal to the sequential one at every worker count, including on grids large
// enough to clear the parallel-dispatch minimum.
func TestAllocateFeaturesParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		rows, cols := 16+rng.Intn(17), 16+rng.Intn(17)
		g := grid.New(rows, cols, []grid.Attribute{
			{Name: "n", Agg: grid.Sum, Integer: true},
			{Name: "price", Agg: grid.Average},
			{Name: "zone", Agg: grid.Average, Categorical: true},
		})
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if rng.Float64() < 0.1 {
					continue
				}
				g.SetVector(r, c, []float64{float64(1 + rng.Intn(9)), rng.Float64() * 500, float64(rng.Intn(5))})
			}
		}
		part := Identity(g) // rows*cols groups: well past the dispatch minimum
		want := AllocateFeatures(g, part)
		for _, w := range []int{0, 1, 2, 5, 16} {
			if got := AllocateFeaturesParallel(g, part, w); !reflect.DeepEqual(want, got) {
				t.Fatalf("AllocateFeaturesParallel(workers=%d) differs", w)
			}
		}
		// Coarser partition too (mixed group sizes).
		rp, err := Repartition(g, Options{Threshold: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		want = AllocateFeatures(g, rp.Partition)
		for _, w := range []int{2, 8} {
			if got := AllocateFeaturesParallel(g, rp.Partition, w); !reflect.DeepEqual(want, got) {
				t.Fatalf("coarse AllocateFeaturesParallel(workers=%d) differs", w)
			}
		}
	}
}

// TestIFLParallelWorkerInvariant: IFL is one chunked reduction, so
// IFLParallel must return exactly IFL's bits at every worker count. Every
// identity partition here spans at least three chunks of lossChunk groups, so
// the partial sums really are combined across chunks and goroutines.
func TestIFLParallelWorkerInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	grids := fanOutGrids()
	for trial := 0; trial < 8; trial++ {
		grids = append(grids, randomMultiGridSized(rng, 48+rng.Intn(40), 48+rng.Intn(24)))
	}
	for i, g := range grids {
		if chunks := lossChunks(g.NumCells()); chunks < 3 {
			t.Fatalf("grid %d: identity partition spans %d chunks, want at least 3", i, chunks)
		}
		rp, err := Repartition(g, Options{Threshold: 0.25, Schedule: ScheduleGeometric})
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range []*Partition{Identity(g), rp.Partition} {
			feats := AllocateFeatures(g, part)
			want := IFL(g, part, feats)
			for _, w := range []int{0, 1, 2, 4, 16} {
				if got := IFLParallel(g, part, feats, w); got != want {
					t.Fatalf("grid %d (%d groups): IFLParallel(workers=%d) = %v, IFL = %v; want identical bits",
						i, len(part.Groups), w, got, want)
				}
			}
		}
	}
}

// TestSearchLadder pins the one ladder search: for each schedule, the exact
// visit order, the evaluation count, and the accepted (last passing) rung,
// across ladder lengths and pass patterns — including a non-monotone one,
// where the geometric schedule jumps over the hole the exact one stops at.
func TestSearchLadder(t *testing.T) {
	all := func(int) bool { return true }
	none := func(int) bool { return false }
	below := func(k int) func(int) bool { return func(i int) bool { return i < k } }
	holes := func(i int) bool { return i < 40 && i != 10 && i != 11 }
	seq := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	cases := []struct {
		name             string
		n                int
		pass             func(int) bool
		exact, geo       []int
		exactAcc, geoAcc int
	}{
		{"n=0", 0, all, nil, nil, -1, -1},
		{"n=1/all", 1, all, []int{0}, []int{0}, 0, 0},
		{"n=1/none", 1, none, []int{0}, []int{0}, -1, -1},
		{"n=2/all", 2, all, []int{0, 1}, []int{0, 1}, 1, 1},
		{"n=2/none", 2, none, []int{0}, []int{0}, -1, -1},
		{"n=2/first-fail-1", 2, below(1), []int{0, 1}, []int{0, 1}, 0, 0},
		{"n=5/all", 5, all, seq(5), []int{0, 2, 3, 4}, 4, 4},
		{"n=5/none", 5, none, []int{0}, []int{0}, -1, -1},
		{"n=5/first-fail-3", 5, below(3), seq(4), []int{0, 2, 3}, 2, 2},
		{"n=5/non-monotone", 5, func(i int) bool { return i != 2 }, seq(3), []int{0, 2, 1}, 1, 1},
		{"n=64/all", 64, all, seq(64), []int{0, 2, 6, 14, 30, 62, 63}, 63, 63},
		{"n=64/none", 64, none, []int{0}, []int{0}, -1, -1},
		{"n=64/first-fail-20", 64, below(20), seq(21), []int{0, 2, 6, 14, 30, 22, 18, 20, 19}, 19, 19},
		{"n=64/non-monotone", 64, holes, seq(11), []int{0, 2, 6, 14, 30, 62, 46, 38, 42, 40, 39}, 9, 39},
	}
	for _, tc := range cases {
		for _, sc := range []struct {
			sched    Schedule
			visits   []int
			accepted int
		}{
			{ScheduleExact, tc.exact, tc.exactAcc},
			{ScheduleGeometric, tc.geo, tc.geoAcc},
		} {
			var visits []int
			accepted := -1
			n, err := SearchLadder(tc.n, sc.sched, func(i int) (bool, error) {
				visits = append(visits, i)
				ok := tc.pass(i)
				if ok {
					if i <= accepted {
						t.Errorf("%s/%s: rung %d passed after coarser rung %d", tc.name, scheduleName(sc.sched), i, accepted)
					}
					accepted = i
				}
				return ok, nil
			})
			label := tc.name + "/" + scheduleName(sc.sched)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(visits, sc.visits) {
				t.Errorf("%s: visited %v, want %v", label, visits, sc.visits)
			}
			if n != len(sc.visits) {
				t.Errorf("%s: evaluated = %d, want %d", label, n, len(sc.visits))
			}
			if accepted != sc.accepted {
				t.Errorf("%s: accepted rung %d, want %d", label, accepted, sc.accepted)
			}
		}
	}

	// An error stops the search at once and is returned as is, with the
	// failing evaluation counted.
	stop := errors.New("stop")
	for _, sched := range []Schedule{ScheduleExact, ScheduleGeometric} {
		var visits []int
		n, err := SearchLadder(64, sched, func(i int) (bool, error) {
			visits = append(visits, i)
			if len(visits) == 3 {
				return false, stop
			}
			return true, nil
		})
		if !errors.Is(err, stop) || n != 3 || len(visits) != 3 {
			t.Errorf("%s: err %v after %d evaluations (%v), want stop after 3", scheduleName(sched), err, n, visits)
		}
	}
	if _, err := SearchLadder(5, Schedule(99), func(int) (bool, error) { return true, nil }); err == nil {
		t.Error("unknown schedule: want error")
	}
}

// TestRepartitionObserverByteIdentical extends the worker-invariance
// property to instrumented runs (ISSUE 2 acceptance): with an active
// observer attached — and with the full report machinery running — the
// returned partition, features, IFL, accepted rung, and iteration count must
// be byte-identical to the bare uninstrumented result for workers ∈
// {1, 4, all}.
func TestRepartitionObserverByteIdentical(t *testing.T) {
	check := func(g *grid.Grid, sched Schedule, th float64) {
		t.Helper()
		bare, err := Repartition(g, Options{Threshold: th, Schedule: sched, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4, 0} {
			o := obs.New()
			observed, err := Repartition(g, Options{Threshold: th, Schedule: sched, Workers: w, Obs: o})
			if err != nil {
				t.Fatal(err)
			}
			equalRepartitioned(t, "observed "+schedLabel(sched, th, w), bare, observed)
			if o.Registry().Counter("rung.evaluated").Value() == 0 && bare.Iterations > 0 {
				t.Errorf("observer attached but no rung evaluations recorded (%s)", schedLabel(sched, th, w))
			}

			reported, rep, err := RepartitionWithReport(g, Options{Threshold: th, Schedule: sched, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			equalRepartitioned(t, "reported "+schedLabel(sched, th, w), bare, reported)
			if rep.Iterations != bare.Iterations {
				t.Errorf("report iterations %d, want %d", rep.Iterations, bare.Iterations)
			}
			if rep.Evaluations != rep.Iterations {
				t.Errorf("report evaluations %d, want iterations %d", rep.Evaluations, rep.Iterations)
			}
			if rep.IFL != bare.IFL || rep.Groups != bare.NumGroups() {
				t.Errorf("report IFL/groups (%v, %d) disagree with result (%v, %d)",
					rep.IFL, rep.Groups, bare.IFL, bare.NumGroups())
			}
		}
	}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 12; trial++ {
		g := randomMultiGrid(rng)
		for _, sched := range []Schedule{ScheduleExact, ScheduleGeometric} {
			for _, th := range []float64{0, 0.05, 0.2, 1} {
				check(g, sched, th)
			}
		}
	}
	// One fan-out grid keeps the race-detector run short;
	// TestRepartitionWorkersByteIdentical covers both sizes.
	g := fanOutGrids()[0]
	for _, tc := range fanOutCases {
		check(g, tc.sched, tc.th)
	}
}

// TestRunReportPopulated pins the report's shape on a non-trivial grid:
// phases timed, trajectory sorted and consistent, ladder stats filled.
func TestRunReportPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomMultiGrid(rng)
	rp, rep, err := RepartitionWithReport(g, Options{Threshold: 0.2, Schedule: ScheduleGeometric, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != g.Rows || rep.Cols != g.Cols || rep.Attrs != g.NumAttrs() {
		t.Errorf("report geometry %dx%dx%d, want %dx%dx%d", rep.Rows, rep.Cols, rep.Attrs, g.Rows, g.Cols, g.NumAttrs())
	}
	if rep.Schedule != "geometric" {
		t.Errorf("schedule %q, want geometric", rep.Schedule)
	}
	if rep.TotalNS <= 0 {
		t.Error("TotalNS not populated")
	}
	if rep.LadderRungs == 0 || rep.Field.FinitePairs == 0 {
		t.Errorf("ladder/field stats empty: %+v", rep.Field)
	}
	if len(rep.Trajectory) != rep.Evaluations {
		t.Errorf("trajectory has %d points, want %d", len(rep.Trajectory), rep.Evaluations)
	}
	for i, e := range rep.Trajectory {
		if i > 0 && e.Rung <= rep.Trajectory[i-1].Rung {
			t.Fatalf("trajectory not strictly ascending at %d: %+v", i, rep.Trajectory)
		}
		if e.Pass != (e.IFL <= 0.2) {
			t.Errorf("trajectory point %d: pass=%v inconsistent with ifl=%v", i, e.Pass, e.IFL)
		}
		if e.Groups > rep.PeakGroups {
			t.Errorf("peak groups %d below trajectory point %d", rep.PeakGroups, e.Groups)
		}
	}
	for _, phase := range []string{"varfield.build", "rung.extract", "rung.allocate", "rung.loss", "rung.eval"} {
		ps, ok := rep.Phases[phase]
		if rep.Evaluations == 0 && phase != "varfield.build" {
			continue
		}
		if !ok || ps.Count == 0 {
			t.Errorf("phase %q missing or empty: %+v", phase, rep.Phases)
		}
	}
	if rp.NumGroups() != rep.Groups || rp.ValidGroups() != rep.ValidGroups {
		t.Errorf("report group counts disagree with result")
	}
}
