package grid

// Normalized returns an attribute-normalized copy of g (paper §II): every
// numeric attribute is linearly rescaled so its values over valid cells lie
// in [0, 1]. Attributes that are constant over the grid map to 0, and
// categorical attributes keep their raw category codes (nominal codes have
// no meaningful scale; variation treats them as 0/1 mismatches). The
// returned ranges allow callers to map normalized values back to the
// original scale.
//
// Normalization matters for multivariate grids: without it, attributes with
// wide numeric ranges would dominate the variation computation of Eq. 1.
func (g *Grid) Normalized() (*Grid, []AttrRange) {
	ranges := g.Ranges()
	out := New(g.Rows, g.Cols, g.Attrs)
	copy(out.valid, g.valid)
	w := g.Cols * len(g.Attrs)
	for r := 0; r < g.Rows; r++ {
		g.NormalizeRow(r, ranges, out.data[r*w:r*w+w])
	}
	return out, ranges
}

// NormalizeRow writes the normalized feature vectors of row r into dst,
// laid out as RowSpan lays out the row, under ranges (g's Ranges()). It is
// the one normalization rule: a numeric value x becomes
// (x − Min) / (Max − Min), or 0 where the span is 0, and a categorical code
// is copied as it is. A null cell's entries in dst are left as they are.
func (g *Grid) NormalizeRow(r int, ranges []AttrRange, dst []float64) {
	p := len(g.Attrs)
	for c := 0; c < g.Cols; c++ {
		if !g.Valid(r, c) {
			continue
		}
		out := dst[c*p : c*p+p]
		for k, x := range g.Vector(r, c) {
			if g.Attrs[k].Categorical {
				out[k] = x
				continue
			}
			v := 0.0
			if span := ranges[k].Max - ranges[k].Min; span > 0 {
				v = (x - ranges[k].Min) / span
			}
			out[k] = v
		}
	}
}
