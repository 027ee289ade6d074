package grid

import (
	"bytes"
	"encoding/csv"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func uniAttrs() []Attribute {
	return []Attribute{{Name: "count", Agg: Sum, Integer: true}}
}

func multiAttrs() []Attribute {
	return []Attribute{
		{Name: "price", Agg: Average},
		{Name: "beds", Agg: Average, Integer: true},
		{Name: "sales", Agg: Sum, Integer: true},
	}
}

func TestNewAndAccessors(t *testing.T) {
	g := New(3, 4, multiAttrs())
	if g.Rows != 3 || g.Cols != 4 || g.NumAttrs() != 3 || g.NumCells() != 12 {
		t.Fatalf("bad dims: %v", g)
	}
	if g.ValidCount() != 0 {
		t.Fatalf("fresh grid should be all-null, got %d valid", g.ValidCount())
	}
	g.Set(1, 2, 0, 100)
	if !g.Valid(1, 2) {
		t.Error("Set should mark cell valid")
	}
	if g.At(1, 2, 0) != 100 {
		t.Errorf("At = %v, want 100", g.At(1, 2, 0))
	}
	g.SetVector(2, 3, []float64{1, 2, 3})
	if v := g.Vector(2, 3); v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Errorf("Vector = %v", v)
	}
	g.SetNull(1, 2)
	if g.Valid(1, 2) || g.At(1, 2, 0) != 0 {
		t.Error("SetNull should clear validity and storage")
	}
	if g.ValidCount() != 1 {
		t.Errorf("ValidCount = %d, want 1", g.ValidCount())
	}
}

func TestCellIndexRoundTrip(t *testing.T) {
	g := New(5, 7, uniAttrs())
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			idx := g.CellIndex(r, c)
			rr, cc := g.CellAt(idx)
			if rr != r || cc != c {
				t.Fatalf("CellAt(CellIndex(%d,%d)) = (%d,%d)", r, c, rr, cc)
			}
		}
	}
	if g.InBounds(-1, 0) || g.InBounds(0, 7) || g.InBounds(5, 0) {
		t.Error("InBounds accepted out-of-range cell")
	}
}

func TestClone(t *testing.T) {
	g := New(2, 2, uniAttrs())
	g.Set(0, 0, 0, 5)
	c := g.Clone()
	c.Set(0, 0, 0, 9)
	if g.At(0, 0, 0) != 5 {
		t.Error("Clone shares storage with original")
	}
}

func TestRanges(t *testing.T) {
	g := New(2, 2, multiAttrs())
	g.SetVector(0, 0, []float64{10, 2, 100})
	g.SetVector(1, 1, []float64{30, 4, 50})
	rng := g.Ranges()
	if rng[0].Min != 10 || rng[0].Max != 30 {
		t.Errorf("range[0] = %+v", rng[0])
	}
	if rng[2].Min != 50 || rng[2].Max != 100 {
		t.Errorf("range[2] = %+v", rng[2])
	}
}

func TestRangesAllNull(t *testing.T) {
	g := New(2, 2, uniAttrs())
	rng := g.Ranges()
	if rng[0].Min != 0 || rng[0].Max != 0 {
		t.Errorf("all-null range = %+v, want zero", rng[0])
	}
}

// TestNormalizedMatchesPaperExample checks the §II worked example: dataset
// (10,15), (20,20), (30,10) normalizes to (0.33,0.75), (0.67,1.0), (1.0,0.5).
// The paper normalizes by the max (values end at 1), i.e. v/max when min maps
// to min/max; our min-max form maps the minimum to 0 instead, which is the
// standard formulation — verify both properties we rely on: range [0,1] and
// order preservation.
func TestNormalizedProperties(t *testing.T) {
	g := New(1, 3, []Attribute{{Name: "a", Agg: Average}, {Name: "b", Agg: Average}})
	g.SetVector(0, 0, []float64{10, 15})
	g.SetVector(0, 1, []float64{20, 20})
	g.SetVector(0, 2, []float64{30, 10})
	n, ranges := g.Normalized()
	for c := 0; c < 3; c++ {
		for k := 0; k < 2; k++ {
			v := n.At(0, c, k)
			if v < 0 || v > 1 {
				t.Errorf("normalized value %v outside [0,1]", v)
			}
		}
	}
	if n.At(0, 0, 0) != 0 || n.At(0, 2, 0) != 1 {
		t.Errorf("attr 0 endpoints = %v, %v; want 0, 1", n.At(0, 0, 0), n.At(0, 2, 0))
	}
	if n.At(0, 1, 0) != 0.5 {
		t.Errorf("attr 0 midpoint = %v, want 0.5", n.At(0, 1, 0))
	}
	// Denormalize round-trips.
	for c := 0; c < 3; c++ {
		got := Denormalize(n.At(0, c, 1), ranges[1])
		if math.Abs(got-g.At(0, c, 1)) > 1e-12 {
			t.Errorf("denormalize(%d) = %v, want %v", c, got, g.At(0, c, 1))
		}
	}
}

func TestNormalizedConstantAttribute(t *testing.T) {
	g := New(1, 2, uniAttrs())
	g.Set(0, 0, 0, 7)
	g.Set(0, 1, 0, 7)
	n, _ := g.Normalized()
	if n.At(0, 0, 0) != 0 || n.At(0, 1, 0) != 0 {
		t.Error("constant attribute should normalize to 0")
	}
}

func TestNormalizedPreservesNulls(t *testing.T) {
	g := New(2, 2, uniAttrs())
	g.Set(0, 0, 0, 1)
	g.Set(1, 1, 0, 2)
	n, _ := g.Normalized()
	if n.Valid(0, 1) || n.Valid(1, 0) {
		t.Error("normalization must preserve null cells")
	}
	if !n.Valid(0, 0) || !n.Valid(1, 1) {
		t.Error("normalization must preserve valid cells")
	}
}

func TestNormalizedRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(4, 4, multiAttrs())
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				if rng.Float64() < 0.2 {
					continue // leave null
				}
				g.SetVector(r, c, []float64{rng.Float64()*1000 - 500, float64(rng.Intn(10)), rng.Float64() * 50})
			}
		}
		n, _ := g.Normalized()
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				if !n.Valid(r, c) {
					continue
				}
				for k := 0; k < 3; k++ {
					v := n.At(r, c, k)
					if v < 0 || v > 1 || math.IsNaN(v) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBoundsCellOf(t *testing.T) {
	b := Bounds{MinLat: 0, MaxLat: 10, MinLon: 0, MaxLon: 20}
	r, c, ok := b.CellOf(5, 10, 10, 10)
	if !ok || r != 5 || c != 5 {
		t.Errorf("CellOf(5,10) = (%d,%d,%v)", r, c, ok)
	}
	// Max edge clamps into the last row/col.
	r, c, ok = b.CellOf(10, 20, 10, 10)
	if !ok || r != 9 || c != 9 {
		t.Errorf("CellOf(max) = (%d,%d,%v)", r, c, ok)
	}
	if _, _, ok := b.CellOf(-1, 5, 10, 10); ok {
		t.Error("CellOf should reject out-of-bounds point")
	}
}

func TestBoundsCellCenter(t *testing.T) {
	b := Bounds{MinLat: 0, MaxLat: 10, MinLon: 0, MaxLon: 10}
	lat, lon := b.CellCenter(0, 0, 10, 10)
	if lat != 0.5 || lon != 0.5 {
		t.Errorf("CellCenter = (%v,%v), want (0.5,0.5)", lat, lon)
	}
	lat, lon = b.CellCenter(9, 9, 10, 10)
	if lat != 9.5 || lon != 9.5 {
		t.Errorf("CellCenter = (%v,%v), want (9.5,9.5)", lat, lon)
	}
}

func TestFromRecordsAggregation(t *testing.T) {
	b := Bounds{MinLat: 0, MaxLat: 2, MinLon: 0, MaxLon: 2}
	attrs := []Attribute{
		{Name: "count", Agg: Sum},
		{Name: "price", Agg: Average},
		{Name: "beds", Agg: Average, Integer: true},
	}
	recs := []Record{
		{Lat: 0.5, Lon: 0.5, Values: []float64{1, 100, 2}},
		{Lat: 0.6, Lon: 0.4, Values: []float64{1, 200, 3}},
		{Lat: 1.5, Lon: 1.5, Values: []float64{1, 50, 1}},
		{Lat: 99, Lon: 99, Values: []float64{1, 1, 1}}, // out of bounds
	}
	g, dropped, err := FromRecords(recs, b, 2, 2, attrs)
	if err != nil {
		t.Fatalf("FromRecords: %v", err)
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if g.At(0, 0, 0) != 2 {
		t.Errorf("sum attr = %v, want 2", g.At(0, 0, 0))
	}
	if g.At(0, 0, 1) != 150 {
		t.Errorf("avg attr = %v, want 150", g.At(0, 0, 1))
	}
	if g.At(0, 0, 2) != 3 { // round(2.5) = 3 (round half away from zero)
		t.Errorf("int avg attr = %v, want 3", g.At(0, 0, 2))
	}
	if g.Valid(0, 1) || g.Valid(1, 0) {
		t.Error("cells without records must stay null")
	}
	if !g.Valid(1, 1) {
		t.Error("cell (1,1) should be valid")
	}
}

func TestFromRecordsBadValues(t *testing.T) {
	b := Bounds{MinLat: 0, MaxLat: 1, MinLon: 0, MaxLon: 1}
	_, _, err := FromRecords([]Record{{Lat: 0.5, Lon: 0.5, Values: []float64{1, 2}}}, b, 1, 1, uniAttrs())
	if err == nil {
		t.Fatal("want error for record/attr arity mismatch")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	g := New(3, 3, multiAttrs())
	g.SetVector(0, 0, []float64{10.5, 2, 7})
	g.SetVector(2, 1, []float64{-3.25, 1, 0})
	var buf bytes.Buffer
	if err := g.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Rows != 3 || got.Cols != 3 {
		t.Fatalf("dims %dx%d", got.Rows, got.Cols)
	}
	if len(got.Attrs) != 3 || got.Attrs[0].Name != "price" || got.Attrs[2].Agg != Sum || !got.Attrs[2].Integer {
		t.Fatalf("attrs = %+v", got.Attrs)
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if got.Valid(r, c) != g.Valid(r, c) {
				t.Fatalf("validity mismatch at (%d,%d)", r, c)
			}
			if !g.Valid(r, c) {
				continue
			}
			for k := 0; k < 3; k++ {
				if got.At(r, c, k) != g.At(r, c, k) {
					t.Errorf("value mismatch at (%d,%d,%d): %v vs %v", r, c, k, got.At(r, c, k), g.At(r, c, k))
				}
			}
		}
	}
}

// TestWriteCSVMatchesEncodingCSV: WriteCSV encodes cell records without
// encoding/csv, so its bytes must equal what encoding/csv writes for the same
// records — across null cells, negative zero, extreme magnitudes, NaN and
// infinities, and attribute names and tags that do need quoting.
func TestWriteCSVMatchesEncodingCSV(t *testing.T) {
	attrs := []Attribute{
		{Name: "a b", Agg: Average},
		{Name: "n,1", Agg: Sum, Integer: true},
		{Name: "zone", Agg: Average, Categorical: true},
	}
	g := New(4, 5, attrs)
	inf := math.Inf(1)
	rows := [][]float64{
		{0, math.Copysign(0, -1), 1e-300},
		{1e300, -1e300, math.NaN()},
		{inf, -inf, 3},
		{-2.5, 123456789, 0.1},
		{5e-324, math.MaxFloat64, -1},
	}
	for i, fv := range rows {
		g.SetVector(i%4, (2*i)%5, fv)
	}
	g.SetVector(3, 4, []float64{7, 8, 9})

	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	header := []string{"row", "col", "a b:average", "n,1:sum:int", "zone:average:cat"}
	for _, rec := range [][]string{{"#grid", "4", "5"}, header} {
		if err := cw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if !g.Valid(r, c) {
				continue
			}
			rec := []string{strconv.Itoa(r), strconv.Itoa(c)}
			for k := range attrs {
				rec = append(rec, strconv.FormatFloat(g.At(r, c, k), 'g', -1, 64))
			}
			if err := cw.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	cw.Flush()
	var got bytes.Buffer
	if err := g.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteCSV wrote\n%s\nencoding/csv writes\n%s", got.Bytes(), want.Bytes())
	}
	back, err := ReadCSV(&got)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if back.Valid(r, c) != g.Valid(r, c) {
				t.Fatalf("validity mismatch at (%d,%d)", r, c)
			}
			if !g.Valid(r, c) {
				continue
			}
			for k := range attrs {
				v, w := back.At(r, c, k), g.At(r, c, k)
				if math.IsNaN(w) && !math.IsNaN(v) || !math.IsNaN(w) && math.Float64bits(v) != math.Float64bits(w) {
					t.Errorf("(%d,%d,%d): read back %v, wrote %v", r, c, k, v, w)
				}
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"bad,header\n",
		"#grid,2\n",
		"#grid,x,2\nrow,col,a\n",
		"#grid,2,2\nbad,header,a\n",
		"#grid,2,2\nrow,col,a:bogus\n",
		"#grid,2,2\nrow,col,a\n9,9,1\n",
		"#grid,2,2\nrow,col,a\n0,0,notanumber\n",
	}
	for _, in := range cases {
		if _, err := ReadCSV(bytes.NewBufferString(in)); err == nil {
			t.Errorf("ReadCSV(%q): want error", in)
		}
	}
}

func TestAggTypeString(t *testing.T) {
	if Sum.String() != "sum" || Average.String() != "average" {
		t.Error("AggType.String mismatch")
	}
	if AggType(9).String() == "" {
		t.Error("unknown AggType should still stringify")
	}
}
