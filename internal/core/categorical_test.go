package core

import (
	"testing"

	"spatialrepart/internal/datagen"
	"spatialrepart/internal/grid"
)

// Tests for the §VI "support for categorical attributes" extension.

func catAttrs() []grid.Attribute {
	return []grid.Attribute{
		{Name: "density", Agg: grid.Average},
		{Name: "landuse", Agg: grid.Average, Categorical: true},
	}
}

func TestVariationAttrsCategoricalMismatch(t *testing.T) {
	attrs := catAttrs()
	// Equal categories contribute 0; different ones contribute 1.
	same := VariationAttrs(attrs, []float64{0.5, 3}, []float64{0.5, 3})
	if same != 0 {
		t.Errorf("variation with equal category = %v, want 0", same)
	}
	diff := VariationAttrs(attrs, []float64{0.5, 3}, []float64{0.5, 7})
	if diff != 0.5 { // (0 + 1) / 2 attributes
		t.Errorf("variation with different category = %v, want 0.5", diff)
	}
	// Category codes are nominal: a bigger code gap must not grow variation.
	far := VariationAttrs(attrs, []float64{0.5, 3}, []float64{0.5, 99})
	if far != diff {
		t.Errorf("variation should be code-distance-agnostic: %v vs %v", far, diff)
	}
}

func TestCategoricalCellsMergeOnlyWithinCategory(t *testing.T) {
	g := grid.New(1, 4, catAttrs())
	g.SetVector(0, 0, []float64{10, 1})
	g.SetVector(0, 1, []float64{10, 1})
	g.SetVector(0, 2, []float64{10, 2}) // same density, different landuse
	g.SetVector(0, 3, []float64{10, 2})
	rp, err := Repartition(g, Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	p := rp.Partition
	if p.GroupOf(0, 0) != p.GroupOf(0, 1) {
		t.Error("same-category identical cells should merge")
	}
	if p.GroupOf(0, 1) == p.GroupOf(0, 2) {
		t.Error("cells with different categories merged at a low threshold")
	}
	if rp.IFL != 0 {
		t.Errorf("IFL = %v, want 0 (all groups category-pure)", rp.IFL)
	}
}

func TestCategoricalAllocationUsesMode(t *testing.T) {
	g := grid.New(1, 3, catAttrs())
	g.SetVector(0, 0, []float64{1, 5})
	g.SetVector(0, 1, []float64{2, 5})
	g.SetVector(0, 2, []float64{3, 9})
	p := &Partition{
		Rows: 1, Cols: 3,
		Groups:      []CellGroup{{RBeg: 0, REnd: 0, CBeg: 0, CEnd: 2}},
		CellToGroup: []int{0, 0, 0},
	}
	feats := AllocateFeatures(g, p)
	if feats[0][1] != 5 {
		t.Errorf("categorical group value = %v, want mode 5", feats[0][1])
	}
	// The numeric attribute still uses the mean/mode rule (mean 2 here).
	if feats[0][0] != 2 {
		t.Errorf("numeric group value = %v, want 2", feats[0][0])
	}
}

func TestIFLTermAttrCategorical(t *testing.T) {
	cat := grid.Attribute{Categorical: true}
	if got := iflTermAttr(cat, 5, 5, 100); got != 0 {
		t.Errorf("matching category term = %v, want 0", got)
	}
	if got := iflTermAttr(cat, 5, 6, 100); got != 1 {
		t.Errorf("mismatching category term = %v, want 1", got)
	}
	num := grid.Attribute{}
	if got := iflTermAttr(num, 10, 12, 100); got != 0.2 {
		t.Errorf("numeric term = %v, want 0.2", got)
	}
}

func TestCategoricalIFLBoundsRepartitioning(t *testing.T) {
	// A salt-and-pepper categorical attribute on an otherwise constant grid:
	// the framework may only merge same-category neighbors at low θ.
	g := grid.New(4, 4, catAttrs())
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			g.SetVector(r, c, []float64{1, float64((r + c) % 2)})
		}
	}
	rp, err := Repartition(g, Options{Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Checkerboard categories: no adjacent pair shares a category, so no
	// merging should happen within the loss budget.
	if rp.NumGroups() != 16 {
		t.Errorf("groups = %d, want 16 (checkerboard cannot merge)", rp.NumGroups())
	}
	if rp.IFL != 0 {
		t.Errorf("IFL = %v, want 0", rp.IFL)
	}
}

func TestRepartitionRejectsCategoricalSum(t *testing.T) {
	g := grid.New(2, 2, []grid.Attribute{{Name: "bad", Agg: grid.Sum, Categorical: true}})
	g.Set(0, 0, 0, 1)
	if _, err := Repartition(g, Options{Threshold: 0.1}); err == nil {
		t.Fatal("want validation error for categorical+sum attribute")
	}
}

func TestCategoricalReconstruction(t *testing.T) {
	g := grid.New(1, 2, catAttrs())
	g.SetVector(0, 0, []float64{1, 7})
	g.SetVector(0, 1, []float64{1, 7})
	rp, err := Repartition(g, Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	out := rp.ReconstructGrid()
	for c := 0; c < 2; c++ {
		if out.At(0, c, 1) != 7 {
			t.Errorf("reconstructed category at col %d = %v, want 7", c, out.At(0, c, 1))
		}
	}
}

func TestLandUseEndToEnd(t *testing.T) {
	d := datagen.LandUse(7, 24, 24)
	rp, err := Repartition(d.Grid, Options{Threshold: 0.1, Schedule: ScheduleGeometric})
	if err != nil {
		t.Fatal(err)
	}
	if rp.IFL > 0.1 {
		t.Fatalf("IFL = %v exceeds threshold", rp.IFL)
	}
	if rp.NumGroups() >= d.Grid.NumCells() {
		t.Error("no reduction on the landuse dataset")
	}
	// Every non-null group's zone must be one of its member cells' zones
	// (mode allocation can never invent a category).
	for gi, cg := range rp.Partition.Groups {
		if cg.Null {
			continue
		}
		zone := rp.Features[gi][1]
		found := false
		for r := cg.RBeg; r <= cg.REnd && !found; r++ {
			for c := cg.CBeg; c <= cg.CEnd && !found; c++ {
				if d.Grid.Valid(r, c) && d.Grid.At(r, c, 1) == zone {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("group %d has invented zone %v", gi, zone)
		}
	}
}
