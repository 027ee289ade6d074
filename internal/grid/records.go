package grid

import (
	"fmt"
	"maps"
	"math"
	"slices"
)

// Record is a raw spatial data record: a geolocation plus one value per
// attribute of the target grid.
type Record struct {
	Lat, Lon float64
	Values   []float64
}

// Bounds is the geographical extent of a grid: latitudes in [MinLat, MaxLat]
// and longitudes in [MinLon, MaxLon]. CellOf includes the max edges.
type Bounds struct {
	MinLat, MaxLat float64
	MinLon, MaxLon float64
}

// Validate rejects bounds CellOf cannot bin records into: NaN or infinite
// extents and inverted or empty spans. Constructors that silently accepted
// such bounds used to drop every ingested record as "out of bounds", or put
// records from different cells into one — an unobservable configuration
// bug.
func (b Bounds) Validate() error {
	for _, v := range []float64{b.MinLat, b.MaxLat, b.MinLon, b.MaxLon} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("grid: bounds are not finite: %+v", b)
		}
	}
	if !(b.MaxLat > b.MinLat) || !(b.MaxLon > b.MinLon) {
		return fmt.Errorf("grid: inverted or empty bounds: lat [%v, %v], lon [%v, %v]",
			b.MinLat, b.MaxLat, b.MinLon, b.MaxLon)
	}
	return nil
}

// CellOf maps a coordinate to its (row, col) in a rows×cols partition of b.
// A point is inside only if MinLat ≤ lat ≤ MaxLat and MinLon ≤ lon ≤ MaxLon,
// so a NaN coordinate is outside. Points on the max edge are clamped into
// the last row/column. The second return is false if the point lies outside
// the bounds.
func (b Bounds) CellOf(lat, lon float64, rows, cols int) (r, c int, ok bool) {
	if !(lat >= b.MinLat && lat <= b.MaxLat && lon >= b.MinLon && lon <= b.MaxLon) {
		return 0, 0, false
	}
	latSpan := b.MaxLat - b.MinLat
	lonSpan := b.MaxLon - b.MinLon
	if latSpan <= 0 || lonSpan <= 0 {
		return 0, 0, false
	}
	r = int((lat - b.MinLat) / latSpan * float64(rows))
	c = int((lon - b.MinLon) / lonSpan * float64(cols))
	if r >= rows {
		r = rows - 1
	}
	if c >= cols {
		c = cols - 1
	}
	return r, c, true
}

// CellCenter returns the geographic center of cell (r, c) in a rows×cols
// partition of b.
func (b Bounds) CellCenter(r, c, rows, cols int) (lat, lon float64) {
	lat = b.MinLat + (float64(r)+0.5)/float64(rows)*(b.MaxLat-b.MinLat)
	lon = b.MinLon + (float64(c)+0.5)/float64(cols)*(b.MaxLon-b.MinLon)
	return lat, lon
}

// ValidateAttrs rejects attribute combinations the framework cannot give
// meaning to (currently: categorical attributes with Sum aggregation —
// category codes cannot be added).
func ValidateAttrs(attrs []Attribute) error {
	for _, a := range attrs {
		if a.Categorical && a.Agg == Sum {
			return fmt.Errorf("grid: categorical attribute %q cannot use sum aggregation", a.Name)
		}
	}
	return nil
}

// Aggregates is the §II reduction of raw records to cells: per cell, a
// record count, per-attribute value sums, and per-categorical-attribute
// category votes. FromRecords and the streaming repartitioner both fold
// records through it, so a streamed grid and the batch grid of the same
// records are the same grid, bit for bit.
//
// Counts, Sums and Votes are the raw state a checkpoint persists: Counts[i]
// records fell into cell i, Sums[i*p+k] is the sum of their attribute-k
// values, and Votes[i*len(CatCols)+j] counts the codes of categorical
// attribute CatCols[j] (nil until the cell receives a record).
type Aggregates struct {
	Bounds     Bounds
	Rows, Cols int
	Attrs      []Attribute
	CatCols    []int

	Counts []int
	Sums   []float64
	Votes  []map[float64]int
}

// NewAggregates returns empty aggregates over a rows×cols partition of
// bounds, after validating the dimensions, the bounds and the attributes.
func NewAggregates(bounds Bounds, rows, cols int, attrs []Attribute) (*Aggregates, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("grid: non-positive dimensions %dx%d", rows, cols)
	}
	if err := bounds.Validate(); err != nil {
		return nil, err
	}
	if err := ValidateAttrs(attrs); err != nil {
		return nil, err
	}
	a := &Aggregates{
		Bounds: bounds,
		Rows:   rows,
		Cols:   cols,
		Attrs:  append([]Attribute(nil), attrs...),
		Counts: make([]int, rows*cols),
		Sums:   make([]float64, rows*cols*len(attrs)),
	}
	for k, at := range attrs {
		if at.Categorical {
			a.CatCols = append(a.CatCols, k)
		}
	}
	if len(a.CatCols) > 0 {
		a.Votes = make([]map[float64]int, rows*cols*len(a.CatCols))
	}
	return a, nil
}

// Cell checks a record and returns the index of the cell it falls in. It
// returns an error for a record the aggregates cannot fold: one with the
// wrong number of values, or with a NaN or infinite value, which would
// poison its cell's sum for good (the error reads as a predicate on
// "record"). It returns ok = false for a point outside the bounds,
// including one with a NaN coordinate.
func (a *Aggregates) Cell(rec Record) (idx int, ok bool, err error) {
	if len(rec.Values) != len(a.Attrs) {
		return 0, false, fmt.Errorf("has %d values, want %d", len(rec.Values), len(a.Attrs))
	}
	for k, v := range rec.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, false, fmt.Errorf("value %d (%s) is %v, want a finite number", k, a.Attrs[k].Name, v)
		}
	}
	r, c, ok := a.Bounds.CellOf(rec.Lat, rec.Lon, a.Rows, a.Cols)
	return r*a.Cols + c, ok, nil
}

// Fold adds the values of a checked record to cell idx.
func (a *Aggregates) Fold(idx int, values []float64) {
	a.Counts[idx]++
	p := len(a.Attrs)
	for k, v := range values {
		a.Sums[idx*p+k] += v
	}
	for j, k := range a.CatCols {
		m := a.Votes[idx*len(a.CatCols)+j]
		if m == nil {
			m = make(map[float64]int, 4)
			a.Votes[idx*len(a.CatCols)+j] = m
		}
		m[values[k]]++
	}
}

// Grid materializes the aggregates: each cell that received records gets
// its sums, or its means (rounded for integer attributes), and the modal
// code of each categorical attribute. Cells without records stay null.
func (a *Aggregates) Grid() *Grid {
	g := New(a.Rows, a.Cols, a.Attrs)
	p := len(a.Attrs)
	for idx, n := range a.Counts {
		if n == 0 {
			continue
		}
		fv := g.data[idx*p : idx*p+p]
		for k, at := range a.Attrs {
			v := a.Sums[idx*p+k]
			if at.Agg == Average {
				v /= float64(n)
				if at.Integer {
					v = math.Round(v)
				}
			}
			fv[k] = v
		}
		for j, k := range a.CatCols {
			fv[k] = modalCategory(a.Votes[idx*len(a.CatCols)+j])
		}
		g.valid[idx] = true
	}
	return g
}

// Clone returns a copy whose counts, sums and votes share no memory with a.
func (a *Aggregates) Clone() *Aggregates {
	out := *a
	out.Counts = slices.Clone(a.Counts)
	out.Sums = slices.Clone(a.Sums)
	out.Votes = slices.Clone(a.Votes)
	for i, m := range out.Votes {
		out.Votes[i] = maps.Clone(m)
	}
	return &out
}

// FromRecords aggregates raw records into a rows×cols grid over bounds,
// applying each attribute's aggregation type: Sum adds record values,
// Average averages them (rounding integer attributes), and categorical
// attributes take the most frequent category among the cell's records.
// Cells that receive no records stay null. Records outside the bounds,
// including those with a NaN coordinate, are dropped and counted in the
// second return value; a record with a NaN or infinite value is an error.
func FromRecords(records []Record, bounds Bounds, rows, cols int, attrs []Attribute) (*Grid, int, error) {
	a, err := NewAggregates(bounds, rows, cols, attrs)
	if err != nil {
		return nil, 0, err
	}
	dropped := 0
	for i, rec := range records {
		idx, ok, err := a.Cell(rec)
		if err != nil {
			return nil, 0, fmt.Errorf("grid: record %d %w", i, err)
		}
		if !ok {
			dropped++
			continue
		}
		a.Fold(idx, rec.Values)
	}
	return a.Grid(), dropped, nil
}

// modalCategory returns the most frequent category code; ties resolve to the
// smallest code for determinism.
func modalCategory(m map[float64]int) float64 {
	best, bestN := math.Inf(1), -1
	for v, n := range m {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}
