package core

import (
	"math"
	"testing"

	"spatialrepart/internal/grid"
)

func TestRepresentative(t *testing.T) {
	sum := grid.Attribute{Agg: grid.Sum}
	avg := grid.Attribute{Agg: grid.Average}
	if got := Representative(sum, 54, 2); got != 27 {
		t.Errorf("sum representative = %v, want 27 (Example 7)", got)
	}
	if got := Representative(avg, 54, 2); got != 54 {
		t.Errorf("avg representative = %v, want 54", got)
	}
}

func TestIFLZeroForIdentityPartition(t *testing.T) {
	g := uniGrid([][]float64{
		{1, 2},
		{3, math.NaN()},
	})
	p := Identity(g)
	feats := AllocateFeatures(g, p)
	if got := IFL(g, p, feats); got != 0 {
		t.Errorf("identity IFL = %v, want 0", got)
	}
}

func TestIFLZeroForHomogeneousGroups(t *testing.T) {
	g := uniGrid([][]float64{
		{5, 5},
		{5, 5},
	})
	p := &Partition{
		Rows: 2, Cols: 2,
		Groups:      []CellGroup{{RBeg: 0, REnd: 1, CBeg: 0, CEnd: 1}},
		CellToGroup: []int{0, 0, 0, 0},
	}
	feats := AllocateFeatures(g, p)
	if got := IFL(g, p, feats); got != 0 {
		t.Errorf("homogeneous IFL = %v, want 0", got)
	}
}

func TestIFLHandComputedAverage(t *testing.T) {
	// Group {10, 20} with average aggregation: rep = mean = 15 (loss tie
	// favors the mean). IFL = (|10-15|/10 + |20-15|/20) / 2 = (0.5+0.25)/2.
	g := grid.New(1, 2, []grid.Attribute{{Name: "v", Agg: grid.Average}})
	g.Set(0, 0, 0, 10)
	g.Set(0, 1, 0, 20)
	p := &Partition{
		Rows: 1, Cols: 2,
		Groups:      []CellGroup{{RBeg: 0, REnd: 0, CBeg: 0, CEnd: 1}},
		CellToGroup: []int{0, 0},
	}
	feats := AllocateFeatures(g, p)
	// mode tie-break picks the smaller value 10, whose loss 5 equals the
	// mean's loss 5; the tie goes to the mean per Algorithm 2.
	if feats[0][0] != 15 {
		t.Fatalf("group value = %v, want 15", feats[0][0])
	}
	want := (5.0/10.0 + 5.0/20.0) / 2.0
	if got := IFL(g, p, feats); math.Abs(got-want) > 1e-12 {
		t.Errorf("IFL = %v, want %v", got, want)
	}
}

func TestIFLHandComputedSum(t *testing.T) {
	// Sum aggregation: group value 30 over 2 cells → each cell represents 15.
	g := grid.New(1, 2, []grid.Attribute{{Name: "v", Agg: grid.Sum}})
	g.Set(0, 0, 0, 10)
	g.Set(0, 1, 0, 20)
	p := &Partition{
		Rows: 1, Cols: 2,
		Groups:      []CellGroup{{RBeg: 0, REnd: 0, CBeg: 0, CEnd: 1}},
		CellToGroup: []int{0, 0},
	}
	feats := AllocateFeatures(g, p)
	want := (5.0/10.0 + 5.0/20.0) / 2.0
	if got := IFL(g, p, feats); math.Abs(got-want) > 1e-12 {
		t.Errorf("IFL = %v, want %v", got, want)
	}
}

func TestIFLZeroDenominatorGuard(t *testing.T) {
	// Original value 0 in a group with rep 1: the term falls back to
	// |0-1| / span with span = 2, keeping IFL bounded and unit-free.
	g := grid.New(1, 2, []grid.Attribute{{Name: "v", Agg: grid.Average}})
	g.Set(0, 0, 0, 0)
	g.Set(0, 1, 0, 2)
	p := &Partition{
		Rows: 1, Cols: 2,
		Groups:      []CellGroup{{RBeg: 0, REnd: 0, CBeg: 0, CEnd: 1}},
		CellToGroup: []int{0, 0},
	}
	feats := AllocateFeatures(g, p)
	got := IFL(g, p, feats)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("IFL not finite: %v", got)
	}
	// rep = 1 (mean; mode tie picks 0 with loss 1 == mean loss 1, tie → mean).
	want := (1.0/2.0 + 1.0/2.0) / 2.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("IFL = %v, want %v", got, want)
	}
}

func TestIFLTerm(t *testing.T) {
	if got := iflTerm(10, 12, 100); got != 0.2 {
		t.Errorf("iflTerm = %v, want 0.2", got)
	}
	if got := iflTerm(0, 5, 10); got != 0.5 {
		t.Errorf("zero-denominator iflTerm = %v, want 0.5", got)
	}
	if got := iflTerm(0, 5, 0); got != 0 {
		t.Errorf("zero-span iflTerm = %v, want 0", got)
	}
	if got := iflTerm(-4, -2, 10); got != 0.5 {
		t.Errorf("negative-value iflTerm = %v, want 0.5", got)
	}
}

func TestIFLIgnoresNullCells(t *testing.T) {
	g := uniGrid([][]float64{
		{10, math.NaN()},
		{10, math.NaN()},
	})
	n, _ := g.Normalized()
	p := Extract(n, 0)
	feats := AllocateFeatures(g, p)
	if got := IFL(g, p, feats); got != 0 {
		t.Errorf("IFL = %v, want 0 (nulls contribute nothing)", got)
	}
}

func TestIFLEmptyGrid(t *testing.T) {
	g := grid.New(2, 2, uniAttrs())
	p := Identity(g)
	feats := AllocateFeatures(g, p)
	if got := IFL(g, p, feats); got != 0 {
		t.Errorf("IFL of all-null grid = %v, want 0", got)
	}
}
