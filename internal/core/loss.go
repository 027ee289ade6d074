package core

import (
	"math"

	"spatialrepart/internal/grid"
)

// Representative returns the value attribute k of the re-partitioned dataset
// assigns back to a single input cell of group cg (paper §III-A4 and §III-C):
// sum-aggregated group values are split evenly across the constituent cells,
// while average-aggregated (and categorical) group values apply to each cell
// directly.
func Representative(attr grid.Attribute, groupValue float64, groupSize int) float64 {
	if attr.Agg == grid.Sum {
		return groupValue / float64(groupSize)
	}
	return groupValue
}

// IFLTermAttr returns one cell-attribute term of Eq. 3 with categorical
// awareness: categorical attributes contribute a 0/1 mismatch indicator
// (exact category → no loss), numeric attributes the absolute percentage
// error of IFLTerm.
func IFLTermAttr(attr grid.Attribute, d, rep, span float64) float64 {
	if attr.Categorical {
		if d == rep { //spatialvet:ignore floateq categorical attributes store discrete codes; exact match IS the semantic (Eq. 3)
			return 0
		}
		return 1
	}
	return IFLTerm(d, rep, span)
}

// IFLTerm returns one cell-attribute term of Eq. 3: the absolute percentage
// error |d − rep| / |d|.
//
// Zero-denominator guard: Eq. 3 divides by the original attribute value;
// when that value is 0 the relative error degenerates, so the term falls
// back to the absolute difference normalized by the attribute's observed
// range span — a bounded, unit-free substitute (0 when the representation is
// exact, and 0 for constant attributes). See DESIGN.md §3.1.
func IFLTerm(d, rep, span float64) float64 {
	diff := math.Abs(d - rep)
	if d != 0 {
		return diff / math.Abs(d)
	}
	if span > 0 {
		return diff / span
	}
	return 0
}

// attrSpans returns each attribute's observed range span over valid cells.
func attrSpans(g *grid.Grid) []float64 { return rangeSpans(g.Ranges()) }

// rangeSpans returns the span Max − Min of each attribute range.
func rangeSpans(ranges []grid.AttrRange) []float64 {
	spans := make([]float64, len(ranges))
	for k, r := range ranges {
		spans[k] = r.Max - r.Min
	}
	return spans
}

// IFL computes the information loss of Eq. 3 between the original grid and a
// re-partitioned dataset (partition + allocated group features): the mean
// absolute percentage error of the representative cell values against the
// original ones, averaged over all valid cells and all attributes. It runs
// the same reduction as IFLParallel on one goroutine, so every path that
// measures a partition — batch rungs, stream refresh, stream recompute —
// gets the same bits.
func IFL(orig *grid.Grid, part *Partition, feats [][]float64) float64 {
	return IFLParallel(orig, part, feats, 1)
}

// groupLoss returns group cg's share of the Eq. 3 numerator: the terms of
// its valid cells in row-major order within the rectangle, attributes
// innermost, against its feature vector fv. It depends only on the rectangle
// and the grid, which is what lets the ladder search memoize it. cg is a
// pointer because the refresh path calls this once per group, where copying
// the rectangle into every call was a measurable share of the IFL sweep.
func groupLoss(orig *grid.Grid, cg *CellGroup, fv, spans []float64) float64 {
	size := cg.Size()
	var sum float64
	for r := cg.RBeg; r <= cg.REnd; r++ {
		for c := cg.CBeg; c <= cg.CEnd; c++ {
			if !orig.Valid(r, c) {
				continue
			}
			for k := range orig.Attrs {
				rep := Representative(orig.Attrs[k], fv[k], size)
				sum += IFLTermAttr(orig.Attrs[k], orig.At(r, c, k), rep, spans[k])
			}
		}
	}
	return sum
}

// lossChunk is the number of consecutive groups whose loss sums make up one
// partial of the IFL reduction. It is a constant rather than a function of
// the worker count, so the partials are always taken over the same groups
// and combined in the same order, whatever the sharding.
const lossChunk = 1024

// lossChunks returns the number of lossChunk-group chunks covering n groups.
func lossChunks(n int) int { return (n + lossChunk - 1) / lossChunk }

// sumChunks is the first half of the one Eq. 3 reduction (DESIGN.md §3.11):
// for each chunk in [lo, hi) it adds the chunk's group loss sums in group
// order into partials[ch]. Disjoint chunk ranges can run concurrently.
func sumChunks(partials []float64, lo, hi, groups int, groupSum func(gi int) float64) {
	for ch := lo; ch < hi; ch++ {
		var s float64
		for gi := ch * lossChunk; gi < min(groups, (ch+1)*lossChunk); gi++ {
			s += groupSum(gi)
		}
		partials[ch] = s
	}
}

// meanLoss is the second half: it adds the chunk partials in chunk order and
// divides by the number of valid cells times the number of attributes.
func meanLoss(partials []float64, valid, attrs int) float64 {
	var sum float64
	for _, s := range partials {
		sum += s
	}
	if valid == 0 || attrs == 0 {
		return 0
	}
	return sum / float64(valid*attrs)
}
