package grid

import (
	"math"
	"strings"
	"testing"
)

func TestCellOfNaNIsOutside(t *testing.T) {
	b := Bounds{MinLat: 0, MaxLat: 10, MinLon: 0, MaxLon: 10}
	for _, p := range [][2]float64{{math.NaN(), 5}, {5, math.NaN()}, {math.NaN(), math.NaN()}} {
		if r, c, ok := b.CellOf(p[0], p[1], 5, 5); ok {
			t.Errorf("CellOf(%v, %v) = (%d, %d, true), want outside", p[0], p[1], r, c)
		}
	}
	// Both max edges are inside and clamp into the last row and column.
	if r, c, ok := b.CellOf(10, 10, 5, 5); !ok || r != 4 || c != 4 {
		t.Errorf("CellOf(max, max) = (%d, %d, %t), want (4, 4, true)", r, c, ok)
	}
}

// TestFromRecordsDropsNaNCoordinates covers odd and even grids: binned, a
// NaN latitude wraps into row 0 of an even grid and indexes out of range on
// an odd one.
func TestFromRecordsDropsNaNCoordinates(t *testing.T) {
	b := Bounds{MinLat: 0, MaxLat: 10, MinLon: 0, MaxLon: 10}
	attrs := []Attribute{{Name: "count", Agg: Sum}}
	recs := []Record{
		{Lat: math.NaN(), Lon: 3, Values: []float64{10}},
		{Lat: 3, Lon: math.NaN(), Values: []float64{20}},
		{Lat: 1, Lon: 1, Values: []float64{1}},
	}
	for _, n := range []int{4, 5} {
		g, dropped, err := FromRecords(recs, b, n, n, attrs)
		if err != nil {
			t.Fatalf("%dx%d: %v", n, n, err)
		}
		if dropped != 2 {
			t.Errorf("%dx%d: dropped = %d, want 2", n, n, dropped)
		}
		if g.ValidCount() != 1 || !g.Valid(0, 0) || g.At(0, 0, 0) != 1 {
			t.Errorf("%dx%d: want only cell (0,0) = 1, got %s, (0,0) = %v", n, n, g, g.At(0, 0, 0))
		}
	}
}

func TestFromRecordsRejectsNonFiniteValues(t *testing.T) {
	b := Bounds{MinLat: 0, MaxLat: 10, MinLon: 0, MaxLon: 10}
	attrs := []Attribute{{Name: "count", Agg: Sum}, {Name: "distance", Agg: Sum}}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		recs := []Record{
			{Lat: 1, Lon: 1, Values: []float64{1, 2}},
			{Lat: 2, Lon: 2, Values: []float64{1, v}},
		}
		_, _, err := FromRecords(recs, b, 4, 4, attrs)
		if err == nil || !strings.Contains(err.Error(), "record 1 ") || !strings.Contains(err.Error(), "distance") {
			t.Errorf("value %v: err = %v, want an error naming record 1 and attribute distance", v, err)
		}
	}
}

func TestFromRecordsRejectsBadBounds(t *testing.T) {
	attrs := []Attribute{{Name: "count", Agg: Sum}}
	recs := []Record{{Lat: 5, Lon: 5, Values: []float64{1}}, {Lat: 6, Lon: 5, Values: []float64{1}}}
	for _, b := range []Bounds{
		{MinLat: 10, MaxLat: 0, MinLon: 0, MaxLon: 10},          // inverted
		{MinLat: 5, MaxLat: 5, MinLon: 0, MaxLon: 10},           // empty
		{MinLat: math.NaN(), MaxLat: 10, MinLon: 0, MaxLon: 10}, // NaN
		{MinLat: 0, MaxLat: 10, MinLon: math.Inf(-1), MaxLon: 10},
	} {
		if _, _, err := FromRecords(recs, b, 5, 5, attrs); err == nil {
			t.Errorf("bounds %+v accepted, want an error", b)
		}
	}
}
