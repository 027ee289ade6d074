package core

import (
	"math"

	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
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
func attrSpans(g *grid.Grid) []float64 {
	ranges := g.Ranges()
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
// the same block reduction as IFLParallel on one goroutine, so every path
// that measures a partition — batch rungs, stream refresh, stream recompute
// — gets the same bits.
func IFL(orig *grid.Grid, part *Partition, feats [][]float64) float64 {
	return iflBlocks(orig, part, feats, attrSpans(orig), 1)
}

// iflRows accumulates the Eq. 3 numerator and valid-cell count over rows
// [r0, r1), in row-major order — the per-block primitive of iflBlocks.
func iflRows(orig *grid.Grid, part *Partition, feats [][]float64, spans []float64, r0, r1 int) (sum float64, valid int) {
	p := orig.NumAttrs()
	for r := r0; r < r1; r++ {
		for c := 0; c < orig.Cols; c++ {
			if !orig.Valid(r, c) {
				continue
			}
			valid++
			gi := part.GroupOf(r, c)
			fv := feats[gi]
			size := part.Groups[gi].Size()
			for k := 0; k < p; k++ {
				rep := Representative(orig.Attrs[k], fv[k], size)
				sum += IFLTermAttr(orig.Attrs[k], orig.At(r, c, k), rep, spans[k])
			}
		}
	}
	return sum, valid
}

// iflObs is the IFL block reduction under observation: it times the Eq. 3
// sweep (span "rung.loss") and counts evaluations. The loss returned is
// exactly IFL's — observation only reads it.
func iflObs(o *obs.Observer, orig *grid.Grid, part *Partition, feats [][]float64, spans []float64, workers int) float64 {
	sp := o.StartSpan("rung.loss")
	loss := iflBlocks(orig, part, feats, spans, workers)
	sp.End()
	o.Count("loss.evaluations", 1)
	return loss
}
