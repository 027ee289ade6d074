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
	p := len(g.Attrs)
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if !g.Valid(r, c) {
				continue
			}
			for k := 0; k < p; k++ {
				if g.Attrs[k].Categorical {
					out.Set(r, c, k, g.At(r, c, k))
					continue
				}
				span := ranges[k].Max - ranges[k].Min
				v := 0.0
				if span > 0 {
					v = (g.At(r, c, k) - ranges[k].Min) / span
				}
				out.Set(r, c, k, v)
			}
		}
	}
	return out, ranges
}
