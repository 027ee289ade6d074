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

// iflTermAttr returns one cell-attribute term of Eq. 3 with categorical
// awareness: categorical attributes contribute a 0/1 mismatch indicator
// (exact category → no loss), numeric attributes the absolute percentage
// error of iflTerm.
func iflTermAttr(attr grid.Attribute, d, rep, span float64) float64 {
	if attr.Categorical {
		if d == rep { //spatialvet:ignore floateq categorical attributes store discrete codes; exact match IS the semantic (Eq. 3)
			return 0
		}
		return 1
	}
	return iflTerm(d, rep, span)
}

// iflTerm returns one cell-attribute term of Eq. 3: the absolute percentage
// error |d − rep| / |d|.
//
// Zero-denominator guard: Eq. 3 divides by the original attribute value;
// when that value is 0 the relative error degenerates, so the term falls
// back to the absolute difference normalized by the attribute's observed
// range span — a bounded, unit-free substitute (0 when the representation is
// exact, and 0 for constant attributes). See DESIGN.md §3.1.
func iflTerm(d, rep, span float64) float64 {
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
// the one reduction the rung memo runs over its stored loss sums, so it
// returns a rung's IFL bit for bit.
func IFL(orig *grid.Grid, part *Partition, feats [][]float64) float64 {
	spans := attrSpans(orig)
	return LossOver(len(part.Groups), orig.ValidCount(), orig.NumAttrs(), func(gi int) float64 {
		cg := &part.Groups[gi]
		return RectLoss(0, orig, cg, feats[gi], cg.Size(), spans)
	})
}

// RectLoss is the one per-cell loop of Eq. 3 (DESIGN.md §3.11): it adds to
// sum the terms of the valid cells of rectangle cg of g, in row-major order
// with attributes innermost, against the feature vector fv, and returns the
// new sum. A Sum attribute's feature is split evenly over split cells. Every
// partition shape computes its group losses with it: a rectangle passes
// sum 0 and its size, a member list calls it over the 1×1 rectangles of its
// cells, and a cube segment calls it once per slice. The attribute loop is
// written out here rather than in a per-cell helper, which would not
// inline. cg is a pointer because the rung memo calls this once per new
// rectangle of every rung: passed by value, the copy once made a per-group
// IFL sweep ~20 % slower (DESIGN.md §3.22).
func RectLoss(sum float64, g *grid.Grid, cg *CellGroup, fv []float64, split int, spans []float64) float64 {
	for r := cg.RBeg; r <= cg.REnd; r++ {
		for c := cg.CBeg; c <= cg.CEnd; c++ {
			if !g.Valid(r, c) {
				continue
			}
			for k := range g.Attrs {
				rep := Representative(g.Attrs[k], fv[k], split)
				sum += iflTermAttr(g.Attrs[k], g.At(r, c, k), rep, spans[k])
			}
		}
	}
	return sum
}

// LossOver is the one Eq. 3 reduction: it adds the n group loss sums
// groupSum returns in fixed chunks (sumChunks), then the chunks, and
// divides by valid cells times attributes (meanLoss). Every partition shape
// reduces its group losses with it.
func LossOver(n, valid, attrs int, groupSum func(gi int) float64) float64 {
	partials := make([]float64, lossChunks(n))
	sumChunks(partials, 0, len(partials), n, groupSum)
	return meanLoss(partials, valid, attrs)
}

// lossChunk is the number of consecutive groups whose loss sums make up one
// partial of the IFL reduction. It is a constant rather than a function of
// the worker count, so the partials are always taken over the same groups
// and combined in the same order, whatever the sharding.
const lossChunk = 1024

// lossChunks returns the number of lossChunk-group chunks covering n groups.
func lossChunks(n int) int { return (n + lossChunk - 1) / lossChunk }

// sumChunks is the first half of LossOver (DESIGN.md §3.11): for each
// chunk in [lo, hi) it adds the chunk's group loss sums in group order into
// partials[ch]. Disjoint chunk ranges can run concurrently, as the rung
// memo's sharded loss pass runs them.
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
