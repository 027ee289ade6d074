package core

import (
	"math"
	"slices"

	"spatialrepart/internal/grid"
	"spatialrepart/internal/par"
)

// VariationField is the dense precompute of every adjacent-pair variation of
// a grid's normalized attributes (DESIGN.md §3.10). The re-partitioning
// driver evaluates O(rungs) partitions, and every adjacency check inside
// Algorithm 1 needs the variation between the same cell pairs; computing
// them once turns each check from an O(#attrs) vector distance into a
// single array load.
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

	valid []bool    // copied from the grid; drives CellGroup.Null
	spans []float64 // each attribute's range span: the rung memo's Eq. 3 spans
}

// BuildField computes the variation field of grid g: one Eq. 1 evaluation
// per 4-adjacent pair of normalized cells, never repeated again. It
// normalizes as it reads, with the rule Normalized applies
// (grid.NormalizeRow) over ranges it computes once, so it makes no
// normalized copy of g and stores the same bits as cellVariation over
// g.Normalized(). A grid that is normalized already yields the same field:
// normalizing puts each attribute's minimum at exactly 0 and its maximum at
// exactly 1, so normalizing it again changes no value. The row sweep is
// sharded across up to `workers` goroutines (0 = GOMAXPROCS); every entry
// is computed independently, so the field is bit-identical for any worker
// count.
func BuildField(g *grid.Grid, workers int) *VariationField {
	n := g.Rows * g.Cols
	ranges := g.Ranges()
	f := &VariationField{
		Rows:  g.Rows,
		Cols:  g.Cols,
		H:     make([]float64, n),
		V:     make([]float64, n),
		valid: make([]bool, n),
		spans: rangeSpans(ranges),
	}
	workers = par.Workers(workers)
	par.Ranges(g.Rows, workers, workers, func(_, lo, hi int) {
		f.fillRows(g, ranges, lo, hi)
	})
	return f
}

// fillRows computes the field entries anchored at rows [r0, r1) of g. It
// normalizes the row it fills and the row below into two row buffers
// (grid.NormalizeRow), which swap as it moves down. Entries are independent
// of one another, so disjoint row bands can be filled concurrently with
// bit-identical results.
func (f *VariationField) fillRows(g *grid.Grid, ranges []grid.AttrRange, r0, r1 int) {
	if r0 >= r1 {
		return
	}
	inf := math.Inf(1)
	p := g.NumAttrs()
	cur, below := make([]float64, f.Cols*p), make([]float64, f.Cols*p)
	g.NormalizeRow(r0, ranges, cur)
	for r := r0; r < r1; r++ {
		if r+1 < f.Rows {
			g.NormalizeRow(r+1, ranges, below)
		}
		for c := 0; c < f.Cols; c++ {
			idx := r*f.Cols + c
			v := g.Valid(r, c)
			f.valid[idx] = v
			a := cur[c*p : c*p+p]
			if c+1 < f.Cols {
				f.H[idx] = pairVariation(g.Attrs, v, g.Valid(r, c+1), a, cur[c*p+p:c*p+2*p])
			} else {
				f.H[idx] = inf
			}
			if r+1 < f.Rows {
				f.V[idx] = pairVariation(g.Attrs, v, g.Valid(r+1, c), a, below[c*p:c*p+p])
			} else {
				f.V[idx] = inf
			}
		}
		cur, below = below, cur
	}
}

// Valid reports whether cell (r, c) of the underlying grid is non-null.
func (f *VariationField) Valid(r, c int) bool { return f.valid[r*f.Cols+c] }

// Ladder drains the field into the distinct ascending variation ladder —
// the same values the §III-A1 heap pops produce, without the boxed heap:
// finite entries are collected, radix-sorted, and deduplicated in place.
// +Inf entries (no neighbour, or a null–valid pair) never merge and NaN
// orders against nothing, so both are dropped before the sort.
func (f *VariationField) Ladder() *VariationLadder {
	vals := make([]float64, 0, 2*len(f.H))
	for _, v := range f.H {
		if finite(v) {
			vals = append(vals, v)
		}
	}
	for _, v := range f.V {
		if finite(v) {
			vals = append(vals, v)
		}
	}
	vals = radixSort(vals, make([]float64, len(vals)))
	out := vals[:0]
	for _, v := range vals {
		if len(out) == 0 || v > out[len(out)-1] {
			out = append(out, v)
		}
	}
	return &VariationLadder{values: out}
}

// radixSort sorts the finite values a ascending with an LSD radix sort over
// sortKey, using b (len(b) ≥ len(a)) as the scatter buffer, and returns the
// sorted slice, which is a or b. A pass whose digit is the same for every
// key moves nothing and is skipped. The sort is stable, so equal keys —
// equal bits — keep their input order; -0 sorts before +0.
func radixSort(a, b []float64) []float64 {
	// 11-bit digits: 2,048 counters per pass fit in L1, and six passes
	// cover the 64-bit key.
	const digit = 11
	const buckets = 1 << digit
	const passes = (64 + digit - 1) / digit
	if len(a) < 2 {
		return a
	}
	b = b[:len(a)]
	var counts [passes][buckets]int
	for _, v := range a {
		k := sortKey(v)
		for d := range counts {
			counts[d][k>>(d*digit)&(buckets-1)]++
		}
	}
	first := sortKey(a[0])
	for d := range counts {
		shift := d * digit
		c := &counts[d]
		if c[first>>shift&(buckets-1)] == len(a) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, v := range a {
			i := sortKey(v) >> shift & (buckets - 1)
			b[c[i]] = v
			c[i]++
		}
		a, b = b, a
	}
	return a
}

// sortKey maps a float's bits to a uint64 whose unsigned order is the
// float's order: bits with the sign bit clear get it set, bits with it set
// are all flipped, so larger negative magnitudes sort lower.
func sortKey(v float64) uint64 {
	k := math.Float64bits(v)
	return k ^ (uint64(int64(k)>>63) | 1<<63)
}

// ExtractField is Algorithm 1 over a precomputed variation field: identical
// output to Extract(norm, minAdjVariation) for the field built from the same
// normalized grid, with every adjacency check reduced to one array load.
func ExtractField(f *VariationField, minAdjVariation float64) *Partition {
	rects := f.extractGroups(nil, make([]int32, f.Cols), minAdjVariation)
	p := &Partition{Rows: f.Rows, Cols: f.Cols, Groups: make([]CellGroup, len(rects))}
	for i, rc := range rects {
		p.Groups[i] = f.group(rc)
	}
	p.indexCells()
	return p
}

// rect is a group as Algorithm 1 emits it: rows [r0, r1] and columns
// [c0, c1], inclusive. At 16 bytes against a CellGroup's 40 it keeps the
// rung loop's group lists small; the null flag is the anchor cell's, read
// from the field when a CellGroup is built.
type rect struct{ r0, r1, c0, c1 int32 }

// group returns rectangle rc as a CellGroup.
func (f *VariationField) group(rc rect) CellGroup {
	return CellGroup{RBeg: int(rc.r0), REnd: int(rc.r1), CBeg: int(rc.c0), CEnd: int(rc.c1),
		Null: !f.valid[int(rc.r0)*f.Cols+int(rc.c0)]}
}

// extractGroups runs Algorithm 1 and appends the groups, in scan order, to
// groups. top (one entry per column) is scratch for the skyline of the
// groups taken so far: top[c] is the row below the latest group covering
// column c, or 0. The groups covering a column are disjoint in rows and
// taken in row order, so cell (r, c) is visited exactly when r < top[c],
// and taking a group costs its width rather than its area. The ladder
// search extracts every rung this way into recycled buffers and builds
// CellGroups only for the rung it accepts.
func (f *VariationField) extractGroups(groups []rect, top []int32, minAdjVariation float64) []rect {
	rows, cols := f.Rows, f.Cols
	clear(top)
	hVar, vVar := f.H, f.V

	// vRun returns the number of consecutive cells downward from the
	// unvisited cell (r, c) — including (r, c), and at most limit ≤ rows − r
	// — such that each vertically adjacent pair has variation
	// ≤ minAdjVariation. It checks no visited marks: a group covering a cell
	// below (r, c) would be anchored earlier in the scan and, being a
	// rectangle, cover (r, c) too.
	vRun := func(r, c, limit int) int {
		n := 1
		for n < limit && vVar[(r+n-1)*cols+c] <= minAdjVariation {
			n++
		}
		return n
	}
	// hRun is vRun rightward along row r, where an earlier group reaching
	// down from a row above can stop the run.
	hRun := func(r, c int) int {
		n := 1
		for c+n < cols && int(top[c+n]) <= r &&
			hVar[r*cols+c+n-1] <= minAdjVariation {
			n++
		}
		return n
	}

	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r < int(top[c]) {
				continue
			}
			vCount := vRun(r, c, rows-r)
			hCount := hRun(r, c)

			// Grow the best rectangle from (r, c): width w sweeps rightward
			// along the horizontal run; the feasible height shrinks
			// monotonically as columns are added because every vertical pair
			// within each column and every horizontal pair between adjacent
			// columns must stay within minAdjVariation. Each column's run
			// is walked no further than the height still feasible.
			bestW, bestH, bestArea := 1, vCount, vCount
			h := vCount
			for w := 2; w <= hCount && h > 1; w++ {
				col := c + w - 1
				h = vRun(r, col, h)
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

			rc := rect{r0: int32(r), c0: int32(c)}
			switch {
			case bestArea >= hCount && bestArea >= vCount:
				rc.r1, rc.c1 = int32(r+bestH-1), int32(c+bestW-1)
			case hCount >= vCount:
				rc.r1, rc.c1 = int32(r), int32(c+hCount-1)
			default:
				rc.r1, rc.c1 = int32(r+vCount-1), int32(c)
			}
			seg := top[c : rc.c1+1]
			for i := range seg {
				seg[i] = rc.r1 + 1
			}
			if len(groups) == cap(groups) {
				// Double: append grows large slices by only 1.25×, and near
				// a million groups its repeated copies cost more than the
				// rectangle search itself.
				groups = slices.Grow(groups, len(groups))
			}
			groups = append(groups, rc)
			c = int(rc.c1) // the columns it covers are visited in row r
		}
	}
	return groups
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
