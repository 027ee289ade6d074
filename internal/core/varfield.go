package core

import (
	"math"
	"slices"
	"sort"

	"spatialrepart/internal/grid"
)

// VariationField is the dense precompute of every adjacent-pair variation of
// a normalized grid (DESIGN.md §3.10). The re-partitioning driver evaluates
// O(rungs) partitions, and every adjacency check inside Algorithm 1 needs the
// variation between the same cell pairs; computing them once turns each check
// from an O(#attrs) vector distance into a single array load.
//
// The paper's null-cell rule is baked into the stored values: a null-null
// pair stores 0 (always mergeable), a null-valid pair stores +Inf (never
// mergeable), exactly as cellVariation returns.
type VariationField struct {
	Rows, Cols int
	// H[r*Cols+c] is the variation between cells (r,c) and (r,c+1).
	// Entries in the last column are +Inf (no right neighbor).
	H []float64
	// V[r*Cols+c] is the variation between cells (r,c) and (r+1,c).
	// Entries in the last row are +Inf (no neighbor below).
	V []float64

	valid []bool // copied from the normalized grid; drives CellGroup.Null
}

// BuildField computes the variation field of a normalized grid: one
// cellVariation evaluation per 4-adjacent pair, never repeated again.
func BuildField(norm *grid.Grid) *VariationField {
	f := newField(norm)
	f.fillRows(norm, 0, norm.Rows)
	return f
}

func newField(norm *grid.Grid) *VariationField {
	n := norm.Rows * norm.Cols
	return &VariationField{
		Rows:  norm.Rows,
		Cols:  norm.Cols,
		H:     make([]float64, n),
		V:     make([]float64, n),
		valid: make([]bool, n),
	}
}

// fillRows computes the field entries anchored at rows [r0, r1). Entries are
// independent of one another, so disjoint row bands can be filled
// concurrently with bit-identical results.
func (f *VariationField) fillRows(norm *grid.Grid, r0, r1 int) {
	inf := math.Inf(1)
	for r := r0; r < r1; r++ {
		for c := 0; c < f.Cols; c++ {
			idx := r*f.Cols + c
			f.valid[idx] = norm.Valid(r, c)
			if c+1 < f.Cols {
				f.H[idx] = cellVariation(norm, r, c, r, c+1)
			} else {
				f.H[idx] = inf
			}
			if r+1 < f.Rows {
				f.V[idx] = cellVariation(norm, r, c, r+1, c)
			} else {
				f.V[idx] = inf
			}
		}
	}
}

// Valid reports whether cell (r, c) of the underlying grid is non-null.
func (f *VariationField) Valid(r, c int) bool { return f.valid[r*f.Cols+c] }

// Ladder drains the field into the distinct ascending variation ladder —
// the same values the §III-A1 heap pops produce, without the boxed heap:
// finite entries are collected, sorted, and deduplicated in place.
func (f *VariationField) Ladder() *VariationLadder {
	vals := make([]float64, 0, 2*len(f.H))
	for _, v := range f.H {
		if !math.IsInf(v, 1) {
			vals = append(vals, v)
		}
	}
	for _, v := range f.V {
		if !math.IsInf(v, 1) {
			vals = append(vals, v)
		}
	}
	sort.Float64s(vals)
	out := vals[:0]
	prev := math.Inf(-1)
	for _, v := range vals {
		if v > prev {
			out = append(out, v)
			prev = v
		}
	}
	return &VariationLadder{values: out}
}

// ExtractField is Algorithm 1 over a precomputed variation field: identical
// output to Extract(norm, minAdjVariation) for the field built from the same
// normalized grid, with every adjacency check reduced to one array load.
func ExtractField(f *VariationField, minAdjVariation float64) *Partition {
	rows, cols := f.Rows, f.Cols
	visited := make([]bool, rows*cols)
	p := &Partition{
		Rows:        rows,
		Cols:        cols,
		CellToGroup: make([]int, rows*cols),
	}
	hVar, vVar := f.H, f.V

	// vRun returns the number of consecutive unvisited cells downward from
	// (r, c) — including (r, c) — such that each vertically adjacent pair has
	// variation ≤ minAdjVariation.
	vRun := func(r, c int) int {
		if visited[r*cols+c] {
			return 0
		}
		n := 1
		for r+n < rows && !visited[(r+n)*cols+c] &&
			vVar[(r+n-1)*cols+c] <= minAdjVariation {
			n++
		}
		return n
	}
	hRun := func(r, c int) int {
		if visited[r*cols+c] {
			return 0
		}
		n := 1
		for c+n < cols && !visited[r*cols+c+n] &&
			hVar[r*cols+c+n-1] <= minAdjVariation {
			n++
		}
		return n
	}

	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if visited[r*cols+c] {
				continue
			}
			vCount := vRun(r, c)
			hCount := hRun(r, c)

			// Grow the best rectangle from (r, c): width w sweeps rightward
			// along the horizontal run; the feasible height shrinks
			// monotonically as columns are added because every vertical pair
			// within each column and every horizontal pair between adjacent
			// columns must stay within minAdjVariation.
			bestW, bestH, bestArea := 1, vCount, vCount
			h := vCount
			for w := 2; w <= hCount && h > 1; w++ {
				col := c + w - 1
				if vr := vRun(r, col); vr < h {
					h = vr
				}
				for t := 1; t < h; t++ { // row r pairs already vetted by hRun
					if hVar[(r+t)*cols+col-1] > minAdjVariation {
						h = t
						break
					}
				}
				if h <= 1 {
					break
				}
				if area := w * h; area > bestArea {
					bestW, bestH, bestArea = w, h, area
				}
			}

			var cg CellGroup
			switch {
			case bestArea >= hCount && bestArea >= vCount:
				cg = CellGroup{RBeg: r, REnd: r + bestH - 1, CBeg: c, CEnd: c + bestW - 1}
			case hCount >= vCount:
				cg = CellGroup{RBeg: r, REnd: r, CBeg: c, CEnd: c + hCount - 1}
			default:
				cg = CellGroup{RBeg: r, REnd: r + vCount - 1, CBeg: c, CEnd: c}
			}
			cg.Null = !f.valid[r*cols+c]

			id := len(p.Groups)
			for rr := cg.RBeg; rr <= cg.REnd; rr++ {
				for cc := cg.CBeg; cc <= cg.CEnd; cc++ {
					visited[rr*cols+cc] = true
					p.CellToGroup[rr*cols+cc] = id
				}
			}
			if len(p.Groups) == cap(p.Groups) {
				// Double: append grows large slices by only 1.25×, and near
				// a million groups its repeated copies cost more than the
				// rectangle search itself.
				p.Groups = slices.Grow(p.Groups, len(p.Groups))
			}
			p.Groups = append(p.Groups, cg)
		}
	}
	return p
}

// FieldStats summarizes a variation field for run reports: how many adjacent
// pairs exist, how many are finite (i.e. mergeable), and the finite
// variation range the ladder spans.
type FieldStats struct {
	Pairs        int     `json:"pairs"`
	FinitePairs  int     `json:"finite_pairs"`
	MinVariation float64 `json:"min_variation"`
	MaxVariation float64 `json:"max_variation"`
}

// Stats scans the field once and returns its summary. Boundary sentinels
// (the last column of H, the last row of V) are not adjacent pairs and are
// excluded from Pairs; null–valid pairs count as pairs but are never finite.
func (f *VariationField) Stats() FieldStats {
	s := FieldStats{MinVariation: math.Inf(1), MaxVariation: math.Inf(-1)}
	scan := func(v float64) {
		s.Pairs++
		if math.IsInf(v, 1) {
			return
		}
		s.FinitePairs++
		if v < s.MinVariation {
			s.MinVariation = v
		}
		if v > s.MaxVariation {
			s.MaxVariation = v
		}
	}
	for r := 0; r < f.Rows; r++ {
		for c := 0; c < f.Cols; c++ {
			if c+1 < f.Cols {
				scan(f.H[r*f.Cols+c])
			}
			if r+1 < f.Rows {
				scan(f.V[r*f.Cols+c])
			}
		}
	}
	if s.FinitePairs == 0 {
		s.MinVariation, s.MaxVariation = 0, 0
	}
	return s
}
