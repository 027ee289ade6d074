package core

import (
	"math"
	"testing"

	"spatialrepart/internal/grid"
)

// TestAllocatePaperExample4 reproduces Example 4: an average-aggregated
// integer attribute over the 6-cell group {23,23,23,24,24,25} has mean 23.67
// rounded to A = 24 and mode B = 23; both yield the same local loss, so the
// tie goes to A and the group value is 24.
func TestAllocatePaperExample4(t *testing.T) {
	g := uniGrid([][]float64{
		{23, 23, 24},
		{23, 24, 25},
	})
	p := &Partition{
		Rows: 2, Cols: 3,
		Groups:      []CellGroup{{RBeg: 0, REnd: 1, CBeg: 0, CEnd: 2}},
		CellToGroup: []int{0, 0, 0, 0, 0, 0},
	}
	feats := AllocateFeatures(g, p)
	if feats[0][0] != 24 {
		t.Errorf("group value = %v, want 24 (Example 4)", feats[0][0])
	}
}

func TestAllocateModeWinsWhenLossLower(t *testing.T) {
	// {10,10,10,10,50}: mean 18 has loss (8*4+32)/5 = 12.8, mode 10 has loss
	// 40/5 = 8, so the mode must win.
	g := grid.New(1, 5, []grid.Attribute{{Name: "v", Agg: grid.Average}})
	for c, v := range []float64{10, 10, 10, 10, 50} {
		g.Set(0, c, 0, v)
	}
	p := &Partition{
		Rows: 1, Cols: 5,
		Groups:      []CellGroup{{RBeg: 0, REnd: 0, CBeg: 0, CEnd: 4}},
		CellToGroup: []int{0, 0, 0, 0, 0},
	}
	feats := AllocateFeatures(g, p)
	if feats[0][0] != 10 {
		t.Errorf("group value = %v, want mode 10", feats[0][0])
	}
}

func TestAllocateSumAggregation(t *testing.T) {
	g := grid.New(1, 3, []grid.Attribute{{Name: "count", Agg: grid.Sum, Integer: true}})
	for c, v := range []float64{4, 7, 9} {
		g.Set(0, c, 0, v)
	}
	p := &Partition{
		Rows: 1, Cols: 3,
		Groups:      []CellGroup{{RBeg: 0, REnd: 0, CBeg: 0, CEnd: 2}},
		CellToGroup: []int{0, 0, 0},
	}
	feats := AllocateFeatures(g, p)
	if feats[0][0] != 20 {
		t.Errorf("sum group value = %v, want 20", feats[0][0])
	}
}

func TestAllocateNonIntegerMeanNotRounded(t *testing.T) {
	g := grid.New(1, 2, []grid.Attribute{{Name: "price", Agg: grid.Average}})
	g.Set(0, 0, 0, 1.0)
	g.Set(0, 1, 0, 2.0)
	p := &Partition{
		Rows: 1, Cols: 2,
		Groups:      []CellGroup{{RBeg: 0, REnd: 0, CBeg: 0, CEnd: 1}},
		CellToGroup: []int{0, 0},
	}
	feats := AllocateFeatures(g, p)
	if feats[0][0] != 1.5 {
		t.Errorf("group value = %v, want 1.5", feats[0][0])
	}
}

func TestAllocateNullGroupGetsNilVector(t *testing.T) {
	g := uniGrid([][]float64{{math.NaN(), math.NaN()}})
	p := &Partition{
		Rows: 1, Cols: 2,
		Groups:      []CellGroup{{RBeg: 0, REnd: 0, CBeg: 0, CEnd: 1, Null: true}},
		CellToGroup: []int{0, 0},
	}
	feats := AllocateFeatures(g, p)
	if feats[0] != nil {
		t.Errorf("null group features = %v, want nil", feats[0])
	}
}

func TestAllocateMultivariate(t *testing.T) {
	attrs := []grid.Attribute{
		{Name: "pickups", Agg: grid.Sum, Integer: true},
		{Name: "fare", Agg: grid.Average},
	}
	g := grid.New(2, 1, attrs)
	g.SetVector(0, 0, []float64{3, 10})
	g.SetVector(1, 0, []float64{5, 20})
	p := &Partition{
		Rows: 2, Cols: 1,
		Groups:      []CellGroup{{RBeg: 0, REnd: 1, CBeg: 0, CEnd: 0}},
		CellToGroup: []int{0, 0},
	}
	feats := AllocateFeatures(g, p)
	if feats[0][0] != 8 {
		t.Errorf("sum attr = %v, want 8", feats[0][0])
	}
	if feats[0][1] != 15 {
		t.Errorf("avg attr = %v, want 15", feats[0][1])
	}
}

func TestLocalLossEq2(t *testing.T) {
	// Eq. 2 on {23,23,23,24,24,25} with rep 24: (1+1+1+0+0+1)/6.
	vals := []float64{23, 23, 23, 24, 24, 25}
	if got, want := localLoss(vals, 24), 4.0/6.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("localLoss = %v, want %v", got, want)
	}
	if localLoss(nil, 5) != 0 {
		t.Error("localLoss of empty slice should be 0")
	}
}

func TestModeDeterministicTieBreak(t *testing.T) {
	// Two values with equal counts: the smaller wins.
	if got := mode([]float64{7, 3, 7, 3}); got != 3 {
		t.Errorf("mode = %v, want 3", got)
	}
	if got := mode([]float64{5}); got != 5 {
		t.Errorf("mode = %v, want 5", got)
	}
}

// TestAllocateFeaturesMatchesSeedLoop holds Algorithm 2 to an independent
// implementation: on the partition of every rung either schedule evaluates
// on the fan-out grids, AllocateFeatures must return the bits of
// seedAllocateFeatures, the seed's loop that gathers one attribute at a time
// and takes the mode through a map. The rung memo and the final gather both
// run allocateGroup, so the properties that compare them with
// AllocateFeatures would all still pass if allocateGroup added a group's
// cells in another order; this one would not.
func TestAllocateFeaturesMatchesSeedLoop(t *testing.T) {
	values := 0
	for gi, g := range fanOutGrids() {
		norm, _ := g.Normalized()
		field := BuildField(norm)
		for _, tc := range fanOutCases {
			_, rep, err := RepartitionWithReport(g, Options{Threshold: tc.th, Schedule: tc.sched, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range rep.Trajectory {
				part := ExtractField(field, e.MinAdjVariation)
				got, want := AllocateFeatures(g, part), seedAllocateFeatures(g, part)
				for i := range want {
					if (got[i] == nil) != (want[i] == nil) {
						t.Fatalf("grid %d rung %d group %d: vector %v, seed loop %v", gi, e.Rung, i, got[i], want[i])
					}
					for k := range want[i] {
						if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
							t.Fatalf("grid %d rung %d group %d %+v attribute %d: %v, seed loop %v",
								gi, e.Rung, i, part.Groups[i], k, got[i][k], want[i][k])
						}
					}
					values += len(want[i])
				}
			}
		}
	}
	t.Logf("%d feature values agree", values)
}
