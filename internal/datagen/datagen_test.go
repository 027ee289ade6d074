package datagen

import (
	"math/rand"
	"testing"

	"spatialrepart/internal/grid"
	"spatialrepart/internal/weights"
)

func TestSmoothFieldRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := smoothField(rng, 20, 30, 2, 3)
	lo, hi := 1.0, 0.0
	for _, v := range f.v {
		if v < 0 || v > 1 {
			t.Fatalf("field value %v outside [0,1]", v)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo != 0 || hi != 1 {
		t.Errorf("field not min-max normalized: [%v, %v]", lo, hi)
	}
}

func TestSmoothFieldIsAutocorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := smoothField(rng, 24, 24, 3, 3)
	w := weights.RookNeighbors(24, 24)
	mi, err := w.MoransI(f.v)
	if err != nil {
		t.Fatal(err)
	}
	if mi < 0.5 {
		t.Errorf("Moran's I = %v, want strongly positive (smoothing failed)", mi)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := TaxiTripsMulti(7, 12, 12)
	b := TaxiTripsMulti(7, 12, 12)
	for r := 0; r < 12; r++ {
		for c := 0; c < 12; c++ {
			if a.Grid.Valid(r, c) != b.Grid.Valid(r, c) {
				t.Fatal("validity differs between equal-seed runs")
			}
			if !a.Grid.Valid(r, c) {
				continue
			}
			for k := 0; k < a.Grid.NumAttrs(); k++ {
				if a.Grid.At(r, c, k) != b.Grid.At(r, c, k) {
					t.Fatal("values differ between equal-seed runs")
				}
			}
		}
	}
	c := TaxiTripsMulti(8, 12, 12)
	same := true
	for r := 0; r < 12 && same; r++ {
		for cc := 0; cc < 12 && same; cc++ {
			if a.Grid.Valid(r, cc) != c.Grid.Valid(r, cc) {
				same = false
			} else if a.Grid.Valid(r, cc) && a.Grid.At(r, cc, 0) != c.Grid.At(r, cc, 0) {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical grids")
	}
}

func TestAllDatasetsWellFormed(t *testing.T) {
	for _, d := range All(42, 16, 16) {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			g := d.Grid
			if g.Rows != 16 || g.Cols != 16 {
				t.Fatalf("dims %dx%d", g.Rows, g.Cols)
			}
			if d.TargetAttr < 0 || d.TargetAttr >= g.NumAttrs() {
				t.Fatalf("target attr %d out of range", d.TargetAttr)
			}
			valid := g.ValidCount()
			if valid == 0 {
				t.Fatal("no valid cells")
			}
			// Empty-cell fraction roughly matches the configured mask.
			frac := 1 - float64(valid)/float64(g.NumCells())
			if frac < 0.01 || frac > 0.25 {
				t.Errorf("empty fraction = %v, want near %v", frac, emptyFrac)
			}
			// No negative attribute values in any generator.
			for r := 0; r < g.Rows; r++ {
				for c := 0; c < g.Cols; c++ {
					if !g.Valid(r, c) {
						continue
					}
					for k := 0; k < g.NumAttrs(); k++ {
						if g.At(r, c, k) < 0 {
							t.Fatalf("negative value at (%d,%d,%d): %v", r, c, k, g.At(r, c, k))
						}
					}
				}
			}
		})
	}
}

func TestDatasetsSpatiallyAutocorrelated(t *testing.T) {
	// The core premise of the substitution: every synthetic target attribute
	// shows positive spatial autocorrelation over valid cells.
	for _, d := range All(11, 20, 20) {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			g := d.Grid
			// Build adjacency over valid cells only.
			idx := make([]int, g.NumCells())
			for i := range idx {
				idx[i] = -1
			}
			var vals []float64
			for r := 0; r < g.Rows; r++ {
				for c := 0; c < g.Cols; c++ {
					if g.Valid(r, c) {
						idx[r*g.Cols+c] = len(vals)
						vals = append(vals, g.At(r, c, d.TargetAttr))
					}
				}
			}
			neighbors := make([][]int, len(vals))
			for r := 0; r < g.Rows; r++ {
				for c := 0; c < g.Cols; c++ {
					i := idx[r*g.Cols+c]
					if i < 0 {
						continue
					}
					if c+1 < g.Cols && idx[r*g.Cols+c+1] >= 0 {
						j := idx[r*g.Cols+c+1]
						neighbors[i] = append(neighbors[i], j)
						neighbors[j] = append(neighbors[j], i)
					}
					if r+1 < g.Rows && idx[(r+1)*g.Cols+c] >= 0 {
						j := idx[(r+1)*g.Cols+c]
						neighbors[i] = append(neighbors[i], j)
						neighbors[j] = append(neighbors[j], i)
					}
				}
			}
			mi, err := weights.New(neighbors).MoransI(vals)
			if err != nil {
				t.Fatal(err)
			}
			if mi < 0.3 {
				t.Errorf("Moran's I = %v for %s target, want ≥ 0.3", mi, d.Name)
			}
		})
	}
}

func TestByName(t *testing.T) {
	names := []string{"taxi-multi", "homesales", "earnings-multi", "taxi-uni", "vehicles-uni", "earnings-uni"}
	for _, n := range names {
		d := ByName(n, 1, 8, 8)
		if d == nil || d.Name != n {
			t.Errorf("ByName(%q) = %v", n, d)
		}
	}
	if ByName("nope", 1, 8, 8) != nil {
		t.Error("unknown name should return nil")
	}
}

func TestMultivariateUnivariateSplit(t *testing.T) {
	multi := Multivariate(1, 8, 8)
	if len(multi) != 3 {
		t.Fatalf("multivariate count = %d", len(multi))
	}
	for _, d := range multi {
		if d.Grid.NumAttrs() < 2 {
			t.Errorf("%s should be multivariate", d.Name)
		}
	}
	uni := Univariate(1, 8, 8)
	if len(uni) != 3 {
		t.Fatalf("univariate count = %d", len(uni))
	}
	for _, d := range uni {
		if d.Grid.NumAttrs() != 1 {
			t.Errorf("%s should be univariate", d.Name)
		}
	}
}

func TestTaxiRecords(t *testing.T) {
	recs, b, attrs := TaxiRecords(3, 500)
	if len(recs) != 500 {
		t.Fatalf("records = %d, want 500", len(recs))
	}
	for _, rec := range recs {
		if rec.Lat < b.MinLat || rec.Lat > b.MaxLat || rec.Lon < b.MinLon || rec.Lon > b.MaxLon {
			t.Fatal("record outside bounds")
		}
		if len(rec.Values) != len(attrs) {
			t.Fatal("record arity mismatch")
		}
		if rec.Values[0] != 1 || rec.Values[3] < 2.5 {
			t.Fatalf("suspicious record values %v", rec.Values)
		}
	}
	// Records aggregate into a well-formed grid.
	g, dropped, err := grid.FromRecords(recs, b, 10, 10, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Errorf("dropped = %d, want 0", dropped)
	}
	if g.ValidCount() == 0 {
		t.Error("aggregated grid empty")
	}
}
