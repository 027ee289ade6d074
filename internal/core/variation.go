// Package core implements the paper's primary contribution: the ML-aware
// spatial data re-partitioning framework (Section III). Fine-grained,
// adjacent spatial cells with similar attribute values are iteratively merged
// into rectangular cell-groups until a user-specified information-loss (IFL)
// threshold would be exceeded; the coarser re-partitioned grid then trains
// downstream spatial ML models in a fraction of the original time and memory.
package core

import (
	"math"

	"spatialrepart/internal/grid"
)

// VariationAttrs returns the attribute variation between two feature
// vectors (Eq. 1): the mean absolute per-attribute difference. The caller
// normalizes attributes first so that wide-range attributes do not
// dominate. With categorical awareness (the §VI categorical-attributes
// extension), a categorical dimension contributes a 0/1 mismatch indicator
// instead of a numeric difference, so two cells merge only when their
// categories agree (or the mismatch budget allows it). Vectors of different
// lengths, or an attribute schema shorter than the vectors, describe
// incomparable schemas and return +Inf (maximally dissimilar) instead of
// panicking.
func VariationAttrs(attrs []grid.Attribute, a, b []float64) float64 {
	if len(a) != len(b) || len(attrs) < len(a) {
		return math.Inf(1)
	}
	if len(a) == 0 {
		return 0
	}
	var s float64
	for k, av := range a {
		if attrs[k].Categorical {
			if av != b[k] { //spatialvet:ignore floateq categorical attributes store discrete codes; the 0/1 mismatch indicator is exact by design
				s++
			}
			continue
		}
		s += math.Abs(av - b[k])
	}
	return s / float64(len(a))
}

// cellVariation returns the variation between cells (r1,c1) and (r2,c2) of a
// normalized grid, with the paper's null-cell rule (pairVariation).
func cellVariation(g *grid.Grid, r1, c1, r2, c2 int) float64 {
	return pairVariation(g.Attrs, g.Valid(r1, c1), g.Valid(r2, c2), g.Vector(r1, c1), g.Vector(r2, c2))
}

// pairVariation returns the variation between two cells whose validity is
// v1 and v2 and whose normalized feature vectors are a and b, with the
// paper's null-cell rule: two null cells may always merge (variation 0),
// while a null cell never merges with a non-null cell (variation +Inf).
// Only a valid pair's vectors are read.
func pairVariation(attrs []grid.Attribute, v1, v2 bool, a, b []float64) float64 {
	switch {
	case !v1 && !v2:
		return 0
	case v1 != v2:
		return math.Inf(1)
	}
	return VariationAttrs(attrs, a, b)
}

// VariationLadder is the sequence of distinct min-adjacent-variation values,
// in increasing order. The re-partitioning driver pops one rung per iteration
// (or several under a geometric schedule); each rung is the
// minAdjacentVariation for that iteration, exactly as the heap pops of
// §III-A1 produce increasingly relaxed merge thresholds.
type VariationLadder struct {
	values []float64
}

// BuildLadder computes the variation between every pair of 4-adjacent cells
// of the normalized grid and returns the distinct ascending ladder. Pairs
// involving exactly one null cell have infinite variation and are excluded
// (they can never merge), and so is NaN. Implemented as a radix sort and
// dedupe over the dense VariationField (the §III-A1 min-heap produced the
// same sequence with far more allocation); callers that also need per-pair
// lookups should call BuildField once and use VariationField.Ladder.
func BuildLadder(norm *grid.Grid) *VariationLadder {
	return BuildField(norm, 1).Ladder()
}

// Len returns the number of distinct rungs.
func (l *VariationLadder) Len() int { return len(l.values) }

// Rung returns the i-th smallest distinct adjacent variation.
func (l *VariationLadder) Rung(i int) float64 { return l.values[i] }

// Values returns the ascending distinct variations (a view, do not modify).
func (l *VariationLadder) Values() []float64 { return l.values }
