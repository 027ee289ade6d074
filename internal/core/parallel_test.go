package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
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

// fanOutGrids returns grids on which every sharded step really splits: both
// schedules evaluate a rung with more than 2·lossChunk groups, so the IFL
// reduction combines three or more chunks and AllocateFeaturesParallel (from
// 2·minParallelGroups groups up) leaves its sequential fallback. The
// geometric schedule's probes start mid-ladder, so the grids must be large
// enough that those rungs clear the bar too: the first grid's largest
// geometric probe has 2,309 groups at 60², but only 1,273 at 48².
// randomMultiGrid's 2–10 × 2–10 grids clear neither bar.
func fanOutGrids() []*grid.Grid {
	return []*grid.Grid{
		datagen.TaxiTripsMulti(1, 60, 60).Grid,
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
// across ladder lengths and loss curves — including non-monotone ones, where
// the geometric schedule brackets past the hole the exact one stops at. Each
// case reports a loss per rung and passes it when loss ≤ θ, as Repartition
// does.
func TestSearchLadder(t *testing.T) {
	const theta = 0.1
	// ramp crosses θ between rungs k−1 and k: rungs below k pass.
	ramp := func(k int) func(int) float64 {
		return func(i int) float64 { return theta * (float64(i) + 0.5) / float64(k) }
	}
	all := func(n int) func(int) float64 { return ramp(2 * n) }
	none := func(i int) float64 { return 2*theta + float64(i)/1000 }
	// holes: a ramp through θ at 40 with failing bumps at rungs 10 and 11.
	holes := func(i int) float64 {
		if i == 10 || i == 11 {
			return 2 * theta
		}
		return ramp(40)(i)
	}
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
		loss             func(int) float64
		exact, geo       []int
		exactAcc, geoAcc int
	}{
		{"n=0", 0, all(0), nil, nil, -1, -1},
		{"n=1/all", 1, all(1), []int{0}, []int{0}, 0, 0},
		{"n=1/none", 1, none, []int{0}, []int{0}, -1, -1},
		{"n=2/all", 2, all(2), []int{0, 1}, []int{0, 1}, 1, 1},
		{"n=2/none", 2, none, []int{0}, []int{0}, -1, -1},
		{"n=2/first-fail-1", 2, ramp(1), []int{0, 1}, []int{0, 1}, 0, 0},
		{"n=5/all", 5, all(5), seq(5), []int{2, 3, 4}, 4, 4},
		{"n=5/none", 5, none, []int{0}, []int{2, 0}, -1, -1},
		{"n=5/first-fail-3", 5, ramp(3), seq(4), []int{2, 3}, 2, 2},
		{"n=5/non-monotone", 5, func(i int) float64 {
			if i == 2 {
				return 2 * theta
			}
			return ramp(5)(i)
		}, seq(3), []int{2, 0, 1}, 1, 1},
		{"n=64/all", 64, all(64), seq(64), []int{31, 47, 55, 59, 61, 62, 63}, 63, 63},
		{"n=64/none", 64, none, []int{0}, []int{31, 15, 7, 3, 1, 0}, -1, -1},
		{"n=1000/none", 1000, none, []int{0}, []int{499, 120, 39, 16, 6, 2, 0}, -1, -1},
		{"n=64/first-fail-20", 64, ramp(20), seq(21), []int{31, 16, 20, 19}, 19, 19},
		// A failing rung whose loss is +Inf gives the interpolation nothing
		// to go on, so the search bisects.
		{"n=64/inf-from-20", 64, func(i int) float64 {
			if i >= 20 {
				return math.Inf(1)
			}
			return ramp(20)(i)
		}, seq(21), []int{31, 15, 23, 19, 21, 20}, 19, 19},
		{"n=64/non-monotone", 64, holes, seq(11), []int{31, 47, 39, 40}, 9, 39},
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
			n, err := SearchLadder(tc.n, sc.sched, theta, func(i int) (bool, float64, error) {
				visits = append(visits, i)
				loss := tc.loss(i)
				ok := loss <= theta
				if ok {
					if i <= accepted {
						t.Errorf("%s/%s: rung %d passed after coarser rung %d", tc.name, scheduleName(sc.sched), i, accepted)
					}
					accepted = i
				}
				return ok, loss, nil
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
		n, err := SearchLadder(64, sched, theta, func(i int) (bool, float64, error) {
			visits = append(visits, i)
			if len(visits) == 3 {
				return false, 0, stop
			}
			return true, 0, nil
		})
		if !errors.Is(err, stop) || n != 3 || len(visits) != 3 {
			t.Errorf("%s: err %v after %d evaluations (%v), want stop after 3", scheduleName(sched), err, n, visits)
		}
	}
	if _, err := SearchLadder(5, Schedule(99), theta, func(int) (bool, float64, error) { return true, 0, nil }); err == nil {
		t.Error("unknown schedule: want error")
	}
}

// TestSearchLadderContract runs the geometric schedule over 100,000 random
// ladders of up to 2²¹ rungs with monotone, step-shaped and non-monotone
// pass patterns, and with reported losses that are exact, NaN, ±Inf or
// unrelated to the verdict. Whatever the losses, every probe lies in
// [0, n), every passing probe is coarser than all earlier passes, the
// accepted rung r (the last pass, or −1) is n − 1 or has a probed, failing
// rung r + 1, and the search takes at most ⌈log₂(n+1)⌉ + 1 evaluations. On
// monotone patterns r is the one passing rung whose successor fails.
func TestSearchLadderContract(t *testing.T) {
	const theta = 0.1
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 100000; trial++ {
		var n int
		if trial%2 == 0 {
			n = rng.Intn(65)
		} else {
			n = rng.Intn(1<<21 + 1)
		}
		// curve gives each rung's true loss; pass is its verdict.
		var curve func(int) float64
		monotone := true
		switch rng.Intn(4) {
		case 0: // smooth: θ·((i+1)/k)^p crosses θ near rung k
			k, p := 1+rng.Float64()*float64(n+1), 0.25+rng.Float64()*4
			curve = func(i int) float64 { return theta * math.Pow(float64(i+1)/k, p) }
		case 1: // step-shaped: flat below rung k, flat above it
			k, below, above := rng.Intn(n+2), rng.Float64()*theta, theta*(1+rng.Float64())
			curve = func(i int) float64 {
				if i < k {
					return below
				}
				return above
			}
		case 2: // non-monotone: a ramp with failing holes below and passing dips above
			k, seed := 1+rng.Float64()*float64(n+1), rng.Uint64()
			monotone = false
			curve = func(i int) float64 {
				v := theta * float64(i+1) / k
				switch mix(seed, i) % 8 {
				case 0:
					return v + theta
				case 1:
					return v / 4
				}
				return v
			}
		default: // non-monotone: an independent draw per rung
			seed := rng.Uint64()
			monotone = false
			curve = func(i int) float64 { return 2 * theta * float64(mix(seed, i)%1024) / 1024 }
		}
		// report corrupts the loss the search sees, never the verdict.
		report := func(i int, loss float64) float64 { return loss }
		if rng.Intn(3) == 0 {
			seed := rng.Uint64()
			bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 7}
			report = func(i int, loss float64) float64 {
				if m := mix(seed, i) % 4; m < 2 {
					return bad[mix(seed^1, i)%uint64(len(bad))]
				}
				return loss
			}
		}

		verdicts := map[int]bool{}
		accepted := -1
		evaluated, err := SearchLadder(n, ScheduleGeometric, theta, func(i int) (bool, float64, error) {
			if i < 0 || i >= n {
				t.Fatalf("trial %d (n=%d): probe %d outside [0, n)", trial, n, i)
			}
			if _, seen := verdicts[i]; seen {
				t.Fatalf("trial %d (n=%d): rung %d probed twice", trial, n, i)
			}
			loss := curve(i)
			ok := loss <= theta
			verdicts[i] = ok
			if ok {
				if i <= accepted {
					t.Fatalf("trial %d (n=%d): rung %d passed after coarser rung %d", trial, n, i, accepted)
				}
				accepted = i
			}
			return ok, report(i, loss), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if evaluated != len(verdicts) {
			t.Fatalf("trial %d (n=%d): evaluated = %d, but %d rungs were probed", trial, n, evaluated, len(verdicts))
		}
		if limit := bits.Len(uint(n)) + 1; evaluated > limit {
			t.Fatalf("trial %d (n=%d): %d evaluations, want at most %d", trial, n, evaluated, limit)
		}
		if ok, probed := verdicts[accepted+1]; accepted != n-1 && (!probed || ok) {
			t.Fatalf("trial %d (n=%d): accepted rung %d, but rung %d was not probed and failed", trial, n, accepted, accepted+1)
		}
		if monotone {
			if want := sort.Search(n, func(i int) bool { return curve(i) > theta }) - 1; accepted != want {
				t.Fatalf("trial %d (n=%d): monotone ladder accepted rung %d, want %d", trial, n, accepted, want)
			}
		}
	}
}

// mix hashes a seed and a rung into a well-spread 64-bit value (SplitMix64's
// finalizer), so a random ladder can answer any rung without storing it.
func mix(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
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
