package core

import (
	"spatialrepart/internal/grid"
)

// AllocateFeaturesFor applies Algorithm 2's feature allocation to arbitrary
// (possibly non-rectangular) groups of cells, given as slices of linear cell
// indices. The data-reduction baselines (sampling, regionalization,
// spatially contiguous clustering) produce such groups, and so do the
// homogeneous blocks of §III-D; computing their features with the same rule
// keeps the Table II/III/V comparisons fair. Groups whose cells are all null
// yield a nil vector; null cells inside mixed groups are skipped.
func AllocateFeaturesFor(orig *grid.Grid, groups [][]int) [][]float64 {
	p := orig.NumAttrs()
	feats := make([][]float64, len(groups))
	vals := make([]float64, 0, 64)
	for gi, members := range groups {
		anyValid := false
		for _, idx := range members {
			r, c := orig.CellAt(idx)
			if orig.Valid(r, c) {
				anyValid = true
				break
			}
		}
		if !anyValid {
			continue
		}
		fv := make([]float64, p)
		for k := 0; k < p; k++ {
			vals = vals[:0]
			for _, idx := range members {
				r, c := orig.CellAt(idx)
				if !orig.Valid(r, c) {
					continue
				}
				vals = append(vals, orig.At(r, c, k))
			}
			fv[k] = AllocateAttr(orig.Attrs[k], vals)
		}
		feats[gi] = fv
	}
	return feats
}

// IFLFor computes the Eq. 3 information loss of groups given as member
// lists that together cover every valid cell once, with the given group
// features. Each group's loss sum adds RectLoss over its members in list
// order, and a Sum attribute's feature is split over split[gi] cells: the
// group's valid members when the feature aggregates them, or 1 when it is
// one member's own value (a sample). Null members contribute nothing.
func IFLFor(orig *grid.Grid, groups [][]int, feats [][]float64, split []int) float64 {
	spans := attrSpans(orig)
	return LossOver(len(groups), orig.ValidCount(), orig.NumAttrs(), func(gi int) float64 {
		var sum float64
		for _, idx := range groups[gi] {
			r, c := orig.CellAt(idx)
			sum = RectLoss(sum, orig, &CellGroup{RBeg: r, REnd: r, CBeg: c, CEnd: c}, feats[gi], split[gi], spans)
		}
		return sum
	})
}
