package core

import (
	"math"
	"testing"

	"spatialrepart/internal/grid"
)

func TestAllocateFeaturesForArbitraryGroups(t *testing.T) {
	g := grid.New(1, 4, []grid.Attribute{
		{Name: "count", Agg: grid.Sum},
		{Name: "price", Agg: grid.Average},
	})
	for c, vals := range [][]float64{{1, 10}, {2, 20}, {3, 30}, {4, 40}} {
		g.SetVector(0, c, vals)
	}
	// Non-contiguous group {0, 2} and group {1, 3}: members.go must not
	// assume rectangles.
	groups := [][]int{{0, 2}, {1, 3}}
	feats := AllocateFeaturesFor(g, groups)
	if feats[0][0] != 4 { // 1 + 3
		t.Errorf("sum = %v, want 4", feats[0][0])
	}
	if feats[0][1] != 20 { // mean(10, 30)
		t.Errorf("avg = %v, want 20", feats[0][1])
	}
	if feats[1][0] != 6 || feats[1][1] != 30 {
		t.Errorf("group 1 = %v", feats[1])
	}
}

func TestAllocateFeaturesForSkipsNullMembers(t *testing.T) {
	g := grid.New(1, 3, []grid.Attribute{{Name: "v", Agg: grid.Average}})
	g.Set(0, 0, 0, 10)
	g.Set(0, 2, 0, 30) // cell 1 is null
	feats := AllocateFeaturesFor(g, [][]int{{0, 1, 2}})
	if feats[0][0] != 20 {
		t.Errorf("avg over valid members = %v, want 20", feats[0][0])
	}
	// All-null group yields nil.
	feats = AllocateFeaturesFor(g, [][]int{{1}})
	if feats[0] != nil {
		t.Errorf("all-null group features = %v, want nil", feats[0])
	}
}

func TestIFLForAssignment(t *testing.T) {
	g := grid.New(1, 2, []grid.Attribute{{Name: "v", Agg: grid.Average}})
	g.Set(0, 0, 0, 10)
	g.Set(0, 1, 0, 20)
	groups := [][]int{{0, 1}}
	feats := AllocateFeaturesFor(g, groups)
	got := IFLFor(g, groups, feats, []int{2})
	want := (5.0/10.0 + 5.0/20.0) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("IFLFor = %v, want %v", got, want)
	}
}

func TestIFLForSumSplitsByValidMembers(t *testing.T) {
	g := grid.New(1, 3, []grid.Attribute{{Name: "v", Agg: grid.Sum}})
	g.Set(0, 0, 0, 10)
	g.Set(0, 1, 0, 20)
	// Cell 2 is a null member: it adds no term, and the split the caller
	// passes counts the 2 valid members, not 3.
	groups := [][]int{{0, 1, 2}}
	feats := AllocateFeaturesFor(g, groups)
	if feats[0][0] != 30 {
		t.Fatalf("sum = %v", feats[0][0])
	}
	got := IFLFor(g, groups, feats, []int{2})
	want := (5.0/10.0 + 5.0/20.0) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("IFLFor = %v, want %v", got, want)
	}
	// A split of 1 represents every member by the feature itself.
	got = IFLFor(g, groups, feats, []int{1})
	want = (20.0/10.0 + 10.0/20.0) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("IFLFor split 1 = %v, want %v", got, want)
	}
}

func TestAllocateFeaturesMeanOnlyVsBestOf(t *testing.T) {
	// {10,10,10,10,50}: best-of picks the mode 10, mean-only must keep 18.
	g := grid.New(1, 5, []grid.Attribute{{Name: "v", Agg: grid.Average}})
	for c, v := range []float64{10, 10, 10, 10, 50} {
		g.Set(0, c, 0, v)
	}
	p := &Partition{
		Rows: 1, Cols: 5,
		Groups:      []CellGroup{{RBeg: 0, REnd: 0, CBeg: 0, CEnd: 4}},
		CellToGroup: []int{0, 0, 0, 0, 0},
	}
	best := AllocateFeatures(g, p)
	meanOnly := AllocateFeaturesMeanOnly(g, p)
	if best[0][0] != 10 {
		t.Errorf("best-of = %v, want mode 10", best[0][0])
	}
	if meanOnly[0][0] != 18 {
		t.Errorf("mean-only = %v, want 18", meanOnly[0][0])
	}
	// Sums are unaffected by the variant.
	gs := grid.New(1, 2, []grid.Attribute{{Name: "c", Agg: grid.Sum}})
	gs.Set(0, 0, 0, 3)
	gs.Set(0, 1, 0, 4)
	ps := &Partition{Rows: 1, Cols: 2, Groups: []CellGroup{{CEnd: 1}}, CellToGroup: []int{0, 0}}
	if AllocateFeaturesMeanOnly(gs, ps)[0][0] != 7 {
		t.Error("mean-only must not change sum aggregation")
	}
}
