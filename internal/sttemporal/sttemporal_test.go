package sttemporal

import (
	"math"
	"testing"

	"spatialrepart/internal/datagen"
	"spatialrepart/internal/grid"
)

func uniAttrs() []grid.Attribute {
	return []grid.Attribute{{Name: "v", Agg: grid.Average}}
}

// slice builds a constant-valued grid.
func slice(rows, cols int, v float64) *grid.Grid {
	g := grid.New(rows, cols, uniAttrs())
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.Set(r, c, 0, v)
		}
	}
	return g
}

func TestNewCubeValidation(t *testing.T) {
	if _, err := NewCube(nil); err == nil {
		t.Error("want empty-cube error")
	}
	a := slice(2, 2, 1)
	b := slice(3, 2, 1)
	if _, err := NewCube([]*grid.Grid{a, b}); err == nil {
		t.Error("want dimension mismatch error")
	}
	c := grid.New(2, 2, []grid.Attribute{{Name: "other", Agg: grid.Sum}})
	if _, err := NewCube([]*grid.Grid{a, c}); err == nil {
		t.Error("want attribute mismatch error")
	}
	if _, err := NewCube([]*grid.Grid{a, slice(2, 2, 9)}); err != nil {
		t.Errorf("valid cube rejected: %v", err)
	}
}

func TestRepartitionConstantCubeCollapsesToOneSegment(t *testing.T) {
	slices := []*grid.Grid{
		slice(4, 4, 5), slice(4, 4, 5), slice(4, 4, 5), slice(4, 4, 5),
	}
	c, err := NewCube(slices)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Repartition(c, Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSegments() != 1 {
		t.Errorf("segments = %d, want 1 for a constant cube", res.NumSegments())
	}
	if res.IFL != 0 {
		t.Errorf("IFL = %v, want 0", res.IFL)
	}
	// Spatial partition collapses the constant grid to a single group.
	if got := res.Partition.NumGroups(); got != 1 {
		t.Errorf("spatial groups = %d, want 1", got)
	}
}

func TestRepartitionBreaksSegmentsAtRegimeChange(t *testing.T) {
	// Two temporal regimes with very different values must not merge.
	slices := []*grid.Grid{
		slice(4, 4, 10), slice(4, 4, 10), slice(4, 4, 10),
		slice(4, 4, 100), slice(4, 4, 100),
	}
	c, _ := NewCube(slices)
	res, err := Repartition(c, Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSegments() != 2 {
		t.Fatalf("segments = %v, want the two regimes separated", res.Segments)
	}
	if res.Segments[0].TEnd != 2 || res.Segments[1].TBeg != 3 {
		t.Errorf("segment boundaries = %v, want split at t=3", res.Segments)
	}
	if res.IFL > 0.1 {
		t.Errorf("IFL = %v exceeds threshold", res.IFL)
	}
}

func TestRepartitionSegmentsCoverAllSlices(t *testing.T) {
	var slices []*grid.Grid
	for i := 0; i < 6; i++ {
		d := datagen.VehiclesUni(int64(100+i), 10, 10)
		slices = append(slices, d.Grid)
	}
	c, err := NewCube(slices)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Repartition(c, Options{Threshold: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	prevEnd := -1
	for _, s := range res.Segments {
		if s.TBeg != prevEnd+1 {
			t.Fatalf("segments not contiguous: %v", res.Segments)
		}
		covered += s.Len()
		prevEnd = s.TEnd
	}
	if covered != c.T() {
		t.Fatalf("segments cover %d slices, want %d", covered, c.T())
	}
	if res.IFL > 0.15+1e-9 {
		t.Errorf("cube IFL = %v exceeds threshold", res.IFL)
	}
}

func TestRepartitionThresholdValidation(t *testing.T) {
	c, _ := NewCube([]*grid.Grid{slice(2, 2, 1)})
	if _, err := Repartition(c, Options{Threshold: -1}); err == nil {
		t.Error("want threshold error")
	}
}

func TestValueAtReconstruction(t *testing.T) {
	slices := []*grid.Grid{slice(2, 2, 10), slice(2, 2, 12)}
	c, _ := NewCube(slices)
	res, err := Repartition(c, Options{Threshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.ValueAt(0, 0, 0, 0)
	if !ok {
		t.Fatal("cell not represented")
	}
	// Representative is between the two regime values (11 when merged, or
	// the slice value when split).
	if v < 10 || v > 12 {
		t.Errorf("ValueAt = %v, want within [10,12]", v)
	}
	if _, ok := res.ValueAt(99, 0, 0, 0); ok {
		t.Error("out-of-range time should not resolve")
	}
}

func TestSumAttributeSegmentRepresentative(t *testing.T) {
	// Sum attribute: the segment value must be one slice's worth (averaged
	// over slices), split across group cells by ValueAt.
	attrs := []grid.Attribute{{Name: "count", Agg: grid.Sum}}
	mk := func(v float64) *grid.Grid {
		g := grid.New(1, 2, attrs)
		g.Set(0, 0, 0, v)
		g.Set(0, 1, 0, v)
		return g
	}
	c, _ := NewCube([]*grid.Grid{mk(4), mk(4)})
	res, err := Repartition(c, Options{Threshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.ValueAt(0, 0, 0, 0)
	if !ok {
		t.Fatal("cell not represented")
	}
	if math.Abs(v-4) > 1e-9 {
		t.Errorf("per-cell representative = %v, want 4", v)
	}
	if res.IFL > 1e-9 {
		t.Errorf("IFL = %v, want 0 for an exactly representable cube", res.IFL)
	}
}

func TestMeanGridHandlesPartialValidity(t *testing.T) {
	a := grid.New(1, 2, uniAttrs())
	a.Set(0, 0, 0, 10) // cell 1 null in slice 0
	b := grid.New(1, 2, uniAttrs())
	b.Set(0, 0, 0, 20)
	b.Set(0, 1, 0, 6)
	c, _ := NewCube([]*grid.Grid{a, b})
	m := meanGrid(c)
	if m.At(0, 0, 0) != 15 {
		t.Errorf("mean = %v, want 15", m.At(0, 0, 0))
	}
	if !m.Valid(0, 1) || m.At(0, 1, 0) != 6 {
		t.Errorf("partially-valid cell should average over its valid slices")
	}
}
