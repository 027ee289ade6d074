package cluster

import (
	"math"
	"math/rand"
	"testing"

	"spatialrepart/internal/grid"
)

func testBounds() grid.Bounds {
	return grid.Bounds{MinLat: 0, MaxLat: 1, MinLon: 0, MaxLon: 1}
}

func TestNewPlanGeometry(t *testing.T) {
	p, err := NewPlan(10, 4, testBounds(), 3)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := []int{4, 3, 3} // 10 rows over 3 bands: first gets the extra
	row := 0
	for i, b := range p.Bands {
		if b.Index != i || b.Row0 != row || b.Rows() != wantRows[i] {
			t.Fatalf("band %d = %+v, want Row0=%d rows=%d", i, b, row, wantRows[i])
		}
		row = b.Row1
	}
	if row != 10 {
		t.Fatalf("bands cover %d rows, want 10", row)
	}
	if p.Bands[0].Bounds.MinLat != 0 || p.Bands[2].Bounds.MaxLat != 1 {
		t.Fatalf("outer band bounds not exact: %+v / %+v", p.Bands[0].Bounds, p.Bands[2].Bounds)
	}
	for i := 1; i < len(p.Bands); i++ {
		if p.Bands[i].Bounds.MinLat != p.Bands[i-1].Bounds.MaxLat {
			t.Fatalf("band %d lat cut %v != band %d top %v",
				i, p.Bands[i].Bounds.MinLat, i-1, p.Bands[i-1].Bounds.MaxLat)
		}
	}

	for _, bad := range []struct{ rows, cols, shards int }{
		{0, 4, 1}, {10, 0, 1}, {10, 4, 0}, {10, 4, 11},
	} {
		if _, err := NewPlan(bad.rows, bad.cols, testBounds(), bad.shards); err == nil {
			t.Fatalf("NewPlan(%+v) accepted", bad)
		}
	}
}

func TestShardForCoversGrid(t *testing.T) {
	p, err := NewPlan(17, 3, testBounds(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p.Rows; r++ {
		s := p.ShardFor(r)
		if s < 0 || r < p.Bands[s].Row0 || r >= p.Bands[s].Row1 {
			t.Fatalf("row %d routed to shard %d owning [%d,%d)", r, s, p.Bands[s].Row0, p.Bands[s].Row1)
		}
	}
	if p.ShardFor(-1) != -1 || p.ShardFor(17) != -1 {
		t.Fatal("out-of-grid rows routed to a shard")
	}
}

// TestRouteAgreesWithGlobalCell is the ingest-consistency property: for any
// in-bounds record, the shard-local cell of the routed record equals the
// global cell minus the band offset — including records sitting exactly on
// band-edge latitudes.
func TestRouteAgreesWithGlobalCell(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shards := range []int{1, 2, 4} {
		p, err := NewPlan(13, 5, grid.Bounds{MinLat: -3, MaxLat: 9, MinLon: 2, MaxLon: 4}, shards)
		if err != nil {
			t.Fatal(err)
		}
		check := func(lat, lon float64) {
			rec := grid.Record{Lat: lat, Lon: lon, Values: []float64{1}}
			gr, gc, ok := p.Bounds.CellOf(lat, lon, p.Rows, p.Cols)
			shard, local, rok := p.Route(rec)
			if ok != rok {
				t.Fatalf("Route ok=%t but CellOf ok=%t for (%v,%v)", rok, ok, lat, lon)
			}
			if !ok {
				return
			}
			if want := p.ShardFor(gr); shard != want {
				t.Fatalf("record (%v,%v) routed to shard %d, want %d", lat, lon, shard, want)
			}
			b := p.Bands[shard]
			lr, lc, lok := b.Bounds.CellOf(local.Lat, local.Lon, b.Rows(), p.Cols)
			if !lok || lr != gr-b.Row0 || lc != gc {
				t.Fatalf("record (%v,%v): global cell (%d,%d), local cell (%d,%d,ok=%t), band Row0=%d",
					lat, lon, gr, gc, lr, lc, lok, b.Row0)
			}
		}
		for i := 0; i < 2000; i++ {
			check(-3+12*rng.Float64(), 2+2*rng.Float64())
		}
		// Exactly on every band-edge latitude, plus the global edges.
		for _, b := range p.Bands {
			check(b.Bounds.MinLat, 3)
			check(b.Bounds.MaxLat, 3)
		}
		check(-3, 2)
		check(9, 4) // max corner: CellOf clamps onto the last cell
	}
}

// TestRouteDropsNaNCoordinates: a record with a NaN latitude or longitude
// is outside the grid and goes to no shard, rather than being re-centered
// at a far-off longitude.
func TestRouteDropsNaNCoordinates(t *testing.T) {
	p, err := NewPlan(5, 5, grid.Bounds{MinLat: 0, MaxLat: 10, MinLon: 0, MaxLon: 10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []grid.Record{
		{Lat: math.NaN(), Lon: 3, Values: []float64{1}},
		{Lat: 3, Lon: math.NaN(), Values: []float64{1}},
	} {
		if shard, local, ok := p.Route(rec); ok {
			t.Errorf("Route(%v, %v) = shard %d at (%v, %v), want not routed", rec.Lat, rec.Lon, shard, local.Lat, local.Lon)
		}
	}
}
