package core

import (
	"math"
	"sort"

	"spatialrepart/internal/grid"
)

// AllocateFeatures implements Algorithm 2: it computes the feature vector of
// every cell-group from the ORIGINAL (unnormalized) grid. For sum-aggregated
// attributes the group value is the sum over constituent cells. For
// average-aggregated attributes the group value is whichever of (A) the mean
// or (B) the most frequent value yields the lower local loss (Eq. 2), with
// ties going to the mean; means of integer attributes are rounded. Groups of
// null cells get a nil feature vector.
func AllocateFeatures(orig *grid.Grid, part *Partition) [][]float64 {
	return allocate(orig, part, false)
}

// AllocateFeaturesMeanOnly is the Algorithm 2 variant WITHOUT the mode
// candidate: average-aggregated attributes always take the (rounded) mean.
// It exists for the allocation ablation — quantifying how much the paper's
// best-of-mean-and-mode rule actually buys.
func AllocateFeaturesMeanOnly(orig *grid.Grid, part *Partition) [][]float64 {
	return allocate(orig, part, true)
}

func allocate(orig *grid.Grid, part *Partition, meanOnly bool) [][]float64 {
	p := orig.NumAttrs()
	feats := make([][]float64, len(part.Groups))
	vals := make([]float64, 0, 64)
	// One backing array for the non-null vectors instead of one allocation
	// per group; each vector is capped at p so an append copies it out.
	valid := 0
	for _, cg := range part.Groups {
		if !cg.Null {
			valid++
		}
	}
	backing := make([]float64, valid*p)
	for gi := range part.Groups {
		cg := &part.Groups[gi]
		if cg.Null {
			continue
		}
		fv := backing[:p:p]
		backing = backing[p:]
		vals = allocateGroup(orig, cg, fv, vals, meanOnly)
		feats[gi] = fv
	}
	return feats
}

// allocateGroup writes the Algorithm 2 feature vector of the non-null group
// cg into fv (length NumAttrs). One row-major sweep over each row's
// contiguous cell vectors adds up every attribute, which leaves each Sum
// attribute's value in fv with the bits AllocateAttr's gathered sum has:
// same values, same order. Every other attribute then gathers its values
// into vals, scratch space returned for reuse, and takes AllocateAttr's
// mean-or-mode rule over them.
func allocateGroup(orig *grid.Grid, cg *CellGroup, fv, vals []float64, meanOnly bool) []float64 {
	p := len(fv)
	clear(fv)
	for r := cg.RBeg; r <= cg.REnd; r++ {
		row := orig.RowSpan(r, cg.CBeg, cg.CEnd)
		for i := 0; i < len(row); i += p {
			for k, v := range row[i : i+p] {
				fv[k] += v
			}
		}
	}
	for k, attr := range orig.Attrs {
		if attr.Agg == grid.Sum {
			continue
		}
		vals = vals[:0]
		for r := cg.RBeg; r <= cg.REnd; r++ {
			row := orig.RowSpan(r, cg.CBeg, cg.CEnd)
			for i := k; i < len(row); i += p {
				vals = append(vals, row[i])
			}
		}
		if meanOnly && attr.Agg == grid.Average && !attr.Categorical {
			a := mean(vals)
			if attr.Integer {
				a = math.Round(a)
			}
			fv[k] = a
			continue
		}
		fv[k] = AllocateAttr(attr, vals)
	}
	return vals
}

// AllocateAttr is the one Algorithm 2 rule: it computes one attribute's
// representative value for a group's member values. Sums add, categorical
// attributes take the mode, and averaged attributes take the better of mean
// and mode under the Eq. 2 local loss, ties going to the mean (mean rounded
// for integer attributes). Every partition shape allocates with it; vals is
// scratch, which the mode sorts in place.
func AllocateAttr(attr grid.Attribute, vals []float64) float64 {
	if attr.Agg == grid.Sum {
		var s float64
		for _, v := range vals {
			s += v
		}
		return s
	}
	if attr.Categorical {
		return mode(vals)
	}
	a := mean(vals)
	if attr.Integer {
		a = math.Round(a)
	}
	b := mode(vals)
	if localLoss(vals, a) <= localLoss(vals, b) {
		return a
	}
	return b
}

// localLoss is Eq. 2: the mean absolute deviation of the constituent cells'
// values from the candidate representative value.
func localLoss(vals []float64, rep float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += math.Abs(v - rep)
	}
	return s / float64(len(vals))
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// mode returns the most frequently occurring value; among equally frequent
// values the smallest wins, which keeps the result deterministic. It sorts
// vals in place and scans runs — the callers treat vals as unordered scratch,
// and this avoids the per-call map that used to dominate the rung loop's
// allocation profile.
func mode(vals []float64) float64 {
	if len(vals) == 0 {
		return math.Inf(1)
	}
	sort.Float64s(vals)
	best, bestN := vals[0], 1
	run := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] == vals[i-1] { //spatialvet:ignore floateq run counting over a sorted slice: duplicates are exact copies of the same stored value
			run++
		} else {
			run = 1
		}
		if run > bestN {
			best, bestN = vals[i], run
		}
	}
	return best
}
