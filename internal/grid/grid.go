// Package grid implements the spatial grid data model from Section II of the
// paper: a geographical region divided into an m×n lattice of rectangular
// cells, each carrying a p-dimensional feature vector produced by aggregating
// the raw data records that fall inside the cell. Cells with no records have
// a null feature vector and are tracked explicitly. That aggregation lives in
// one place, Aggregates: FromRecords runs it over a slice of records and the
// streaming repartitioner folds each ingested record through it.
package grid

import (
	"fmt"
	"math"
)

// AggType describes how the records mapped to a cell — and later, the cells
// merged into a cell-group — are combined into one representative value.
type AggType int

const (
	// Sum adds the values (e.g. counts of criminal cases, taxi pickups).
	Sum AggType = iota
	// Average averages the values (e.g. housing prices).
	Average
)

// String implements fmt.Stringer.
func (a AggType) String() string {
	switch a {
	case Sum:
		return "sum"
	case Average:
		return "average"
	}
	return fmt.Sprintf("AggType(%d)", int(a))
}

// Attribute describes one dimension of a cell's feature vector.
type Attribute struct {
	Name string
	Agg  AggType
	// Integer marks attributes whose representative values must be rounded
	// to the nearest integer during feature allocation (paper §III-A3).
	Integer bool
	// Categorical marks nominal attributes whose values are category codes:
	// variation between cells is a 0/1 mismatch indicator, feature
	// allocation always uses the mode, and the information-loss term is the
	// mismatch rate. Categorical attributes must use Average aggregation
	// (a category cannot be summed) — the §VI "support for categorical
	// attributes" extension.
	Categorical bool
}

// Grid is an m×n spatial grid. Feature vectors are stored row-major in a
// single backing slice; null cells (empty feature vectors) are tracked in a
// parallel validity slice. The zero value is an empty grid; use New.
type Grid struct {
	Rows, Cols int
	Attrs      []Attribute

	data  []float64 // Rows*Cols*len(Attrs), row-major by cell then attribute
	valid []bool    // Rows*Cols
}

// New allocates a rows×cols grid with the given attributes. All cells start
// null.
func New(rows, cols int, attrs []Attribute) *Grid {
	// Invariant: negative dimensions are a programmer error (mirrors what
	// make() itself would do); input-derived sizes are validated by callers.
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("grid: negative dimensions %dx%d", rows, cols)) //spatialvet:ignore panicsite constructor contract: negative dims are programmer error, like make()
	}
	a := make([]Attribute, len(attrs))
	copy(a, attrs)
	return &Grid{
		Rows:  rows,
		Cols:  cols,
		Attrs: a,
		data:  make([]float64, rows*cols*len(attrs)),
		valid: make([]bool, rows*cols),
	}
}

// NumAttrs returns the number of attributes p.
func (g *Grid) NumAttrs() int { return len(g.Attrs) }

// NumCells returns m*n.
func (g *Grid) NumCells() int { return g.Rows * g.Cols }

// InBounds reports whether (r, c) addresses a cell of the grid.
func (g *Grid) InBounds(r, c int) bool {
	return r >= 0 && r < g.Rows && c >= 0 && c < g.Cols
}

// CellIndex returns the linear index of cell (r, c).
func (g *Grid) CellIndex(r, c int) int { return r*g.Cols + c }

// CellAt returns the (row, col) of a linear cell index.
func (g *Grid) CellAt(idx int) (r, c int) { return idx / g.Cols, idx % g.Cols }

// Valid reports whether cell (r, c) has a non-null feature vector.
func (g *Grid) Valid(r, c int) bool { return g.valid[r*g.Cols+c] }

// ValidCount returns the number of non-null cells.
func (g *Grid) ValidCount() int {
	n := 0
	for _, v := range g.valid {
		if v {
			n++
		}
	}
	return n
}

// At returns the value of attribute k at cell (r, c). Reading a null cell
// returns whatever was last stored (zero for fresh grids); callers that care
// must check Valid first.
func (g *Grid) At(r, c, k int) float64 {
	return g.data[(r*g.Cols+c)*len(g.Attrs)+k]
}

// Set assigns attribute k of cell (r, c) and marks the cell valid.
func (g *Grid) Set(r, c, k int, v float64) {
	g.data[(r*g.Cols+c)*len(g.Attrs)+k] = v
	g.valid[r*g.Cols+c] = true
}

// SetVector assigns the whole feature vector of cell (r, c) and marks it
// valid. The vector is copied.
func (g *Grid) SetVector(r, c int, fv []float64) {
	// Invariant: the vector width is fixed by the grid schema the caller
	// built; a mismatch is a programming error, not an input condition.
	if len(fv) != len(g.Attrs) {
		panic(fmt.Sprintf("grid: feature vector length %d, want %d", len(fv), len(g.Attrs))) //spatialvet:ignore panicsite schema-width contract: mismatch is programmer error
	}
	copy(g.data[(r*g.Cols+c)*len(g.Attrs):], fv)
	g.valid[r*g.Cols+c] = true
}

// Vector returns a view (not a copy) of the feature vector at (r, c).
func (g *Grid) Vector(r, c int) []float64 {
	base := (r*g.Cols + c) * len(g.Attrs)
	return g.data[base : base+len(g.Attrs)]
}

// RowSpan returns a view (not a copy) of the feature vectors of cells
// (r, c0) through (r, c1), which lie next to each other in storage:
// attribute k of cell (r, c) is at index (c−c0)·NumAttrs() + k.
func (g *Grid) RowSpan(r, c0, c1 int) []float64 {
	p := len(g.Attrs)
	end := (r*g.Cols + c1 + 1) * p
	return g.data[(r*g.Cols+c0)*p : end : end]
}

// SetNull marks cell (r, c) as having a null feature vector and zeroes its
// storage.
func (g *Grid) SetNull(r, c int) {
	base := (r*g.Cols + c) * len(g.Attrs)
	for i := base; i < base+len(g.Attrs); i++ {
		g.data[i] = 0
	}
	g.valid[r*g.Cols+c] = false
}

// Clone returns a deep copy of g.
func (g *Grid) Clone() *Grid {
	out := New(g.Rows, g.Cols, g.Attrs)
	copy(out.data, g.data)
	copy(out.valid, g.valid)
	return out
}

// AttrRange holds the observed [Min, Max] of one attribute over valid cells.
type AttrRange struct{ Min, Max float64 }

// Ranges returns per-attribute min/max over valid cells. Attributes with no
// valid cells get the degenerate range [0, 0].
func (g *Grid) Ranges() []AttrRange {
	p := len(g.Attrs)
	out := make([]AttrRange, p)
	for k := range out {
		out[k] = AttrRange{Min: math.Inf(1), Max: math.Inf(-1)}
	}
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if !g.Valid(r, c) {
				continue
			}
			for k := 0; k < p; k++ {
				v := g.At(r, c, k)
				if v < out[k].Min {
					out[k].Min = v
				}
				if v > out[k].Max {
					out[k].Max = v
				}
			}
		}
	}
	for k := range out {
		if math.IsInf(out[k].Min, 1) {
			out[k] = AttrRange{}
		}
	}
	return out
}

// String summarizes the grid.
func (g *Grid) String() string {
	return fmt.Sprintf("grid %dx%d, %d attrs, %d/%d valid cells",
		g.Rows, g.Cols, len(g.Attrs), g.ValidCount(), g.NumCells())
}
