// Package sttemporal extends the re-partitioning framework to
// spatio-temporal datasets — the first of the paper's §VI future-work
// directions, in the spirit of the 2D-STR reduction the IFL metric is
// borrowed from. A dataset is a cube: T time slices of the same m×n grid.
// Reduction happens in two phases that share one information-loss budget:
//
//  1. Spatial phase: the temporal-mean grid is re-partitioned with half the
//     budget, producing ONE rectangular cell-group partition that all slices
//     share (aligned partitions keep adjacency and instance identity stable
//     over time, which downstream temporal models require).
//  2. Temporal phase: consecutive slices are greedily merged into segments;
//     a segment grows while representing all its slices by one feature
//     vector per group keeps the cube-wide information loss within the full
//     threshold.
//
// The result maps any (time, cell) back to its (segment, group)
// representative value, mirroring §III-C.
package sttemporal

import (
	"fmt"

	"spatialrepart/internal/core"
	"spatialrepart/internal/grid"
)

// Cube is a spatio-temporal dataset: time-ordered slices of one grid.
type Cube struct {
	Slices []*grid.Grid
}

// NewCube validates that all slices share dimensions and attributes.
func NewCube(slices []*grid.Grid) (*Cube, error) {
	if len(slices) == 0 {
		return nil, fmt.Errorf("sttemporal: empty cube")
	}
	first := slices[0]
	for i, s := range slices[1:] {
		if s.Rows != first.Rows || s.Cols != first.Cols {
			return nil, fmt.Errorf("sttemporal: slice %d is %dx%d, want %dx%d", i+1, s.Rows, s.Cols, first.Rows, first.Cols)
		}
		if s.NumAttrs() != first.NumAttrs() {
			return nil, fmt.Errorf("sttemporal: slice %d has %d attributes, want %d", i+1, s.NumAttrs(), first.NumAttrs())
		}
		for k, a := range s.Attrs {
			if a != first.Attrs[k] {
				return nil, fmt.Errorf("sttemporal: slice %d attribute %d differs", i+1, k)
			}
		}
	}
	return &Cube{Slices: slices}, nil
}

// T returns the number of time slices.
func (c *Cube) T() int { return len(c.Slices) }

// Segment is a run of consecutive time slices represented together.
type Segment struct {
	TBeg, TEnd int // inclusive
}

// Len returns the number of slices in the segment.
func (s Segment) Len() int { return s.TEnd - s.TBeg + 1 }

// Options configures Repartition.
type Options struct {
	// Threshold is the cube-wide information-loss budget θ ∈ [0, 1].
	Threshold float64
}

// spatialShare is the fraction of the budget given to the spatial phase.
const spatialShare = 0.5

// Result is the spatio-temporal re-partitioning output.
type Result struct {
	Cube      *Cube
	Partition *core.Partition // shared spatial partition
	Segments  []Segment
	// Features[s][g] is the feature vector representing group g during
	// segment s (nil for null groups).
	Features [][][]float64
	// IFL is the cube-wide Eq. 3 loss of the representation.
	IFL float64
	// SpatialIFL is the loss of the spatial phase alone (against the mean
	// grid's slices).
	SpatialIFL float64
}

// NumSegments returns the number of temporal segments.
func (r *Result) NumSegments() int { return len(r.Segments) }

// Repartition reduces the cube. See the package comment for the algorithm.
func Repartition(c *Cube, opts Options) (*Result, error) {
	if opts.Threshold < 0 || opts.Threshold > 1 {
		return nil, fmt.Errorf("sttemporal: threshold %v outside [0,1]", opts.Threshold)
	}

	lb := newLossBasis(c)
	part, spatialIFL, err := spatialPhase(c, lb, opts.Threshold*spatialShare)
	if err != nil {
		return nil, err
	}

	res := &Result{Cube: c, Partition: part, SpatialIFL: spatialIFL}

	// Temporal phase: grow segments greedily while the cube-wide IFL of the
	// representation so far stays within the full threshold. The segment
	// and its candidate extension fill two scratch feature sets, which swap
	// when the extension is accepted; the result keeps a copy of each
	// accepted segment's vectors.
	groups, p := len(part.Groups), c.Slices[0].NumAttrs()
	cur, next := newFeatureSet(groups, p), newFeatureSet(groups, p)
	t := 0
	for t < c.T() {
		end := t
		feats := segmentFeatures(c, part, t, end, cur)
		// Try to extend the segment one slice at a time.
		for end+1 < c.T() {
			candidate := segmentFeatures(c, part, t, end+1, next)
			if segmentIFL(c, lb, part, t, end+1, candidate) > opts.Threshold {
				break
			}
			end++
			feats = candidate
			cur, next = next, cur
		}
		res.Segments = append(res.Segments, Segment{TBeg: t, TEnd: end})
		res.Features = append(res.Features, copyFeatures(feats, p))
		t = end + 1
	}

	res.IFL = iflOver(c, lb, part, res.Segments, res.Features)
	return res, nil
}

// spatialPhase finds the coarsest shared rectangular partition whose WORST
// per-slice information loss stays within the spatial budget. Candidate
// partitions come from the variation ladder of the temporal-mean grid
// (merging cells that are similar on average); acceptance is checked against
// every individual slice, so the bound holds for the real data rather than
// its average. The ladder is searched by core.SearchLadder under
// core.ScheduleGeometric, steered by the worst-slice loss. Every slice of
// every rung writes its features into one scratch feature set, sized for
// the identity partition: no partition has more groups than cells.
func spatialPhase(c *Cube, lb lossBasis, budget float64) (*core.Partition, float64, error) {
	mean := meanGrid(c)
	if err := grid.ValidateAttrs(mean.Attrs); err != nil {
		return nil, 0, err
	}
	field := core.BuildField(mean, 1)
	ladder := field.Ladder()

	scratch := newFeatureSet(mean.NumCells(), mean.NumAttrs())
	worstSliceIFL := func(part *core.Partition) float64 {
		worst := 0.0
		for t := 0; t < c.T(); t++ {
			feats := segmentFeatures(c, part, t, t, scratch)
			if ifl := segmentIFL(c, lb, part, t, t, feats); ifl > worst {
				worst = ifl
			}
		}
		return worst
	}

	best := core.Identity(mean)
	bestIFL := worstSliceIFL(best)
	if bestIFL > budget {
		// Even the unmerged partition overshoots (can only stem from the
		// zero-span guard on degenerate data); keep the identity partition.
		return best, bestIFL, nil
	}
	_, err := core.SearchLadder(ladder.Len(), core.ScheduleGeometric, budget, func(i int) (bool, float64, error) {
		part := core.ExtractField(field, ladder.Rung(i))
		ifl := worstSliceIFL(part)
		if ifl > budget {
			return false, ifl, nil
		}
		best, bestIFL = part, ifl
		return true, ifl, nil
	})
	return best, bestIFL, err
}

// meanGrid averages each cell's feature vector over the slices where it is
// valid (sums are averaged too — the partition only needs relative
// structure). A cell valid in no slice stays null.
func meanGrid(c *Cube) *grid.Grid {
	first := c.Slices[0]
	p := first.NumAttrs()
	out := grid.New(first.Rows, first.Cols, first.Attrs)
	counts := make([]int, first.NumCells())
	sums := make([]float64, first.NumCells()*p)
	catVotes := make([]map[float64]int, 0)
	catCols := []int{}
	for k, a := range first.Attrs {
		if a.Categorical {
			catCols = append(catCols, k)
		}
	}
	if len(catCols) > 0 {
		catVotes = make([]map[float64]int, first.NumCells()*len(catCols))
	}
	for _, s := range c.Slices {
		for r := 0; r < s.Rows; r++ {
			for col := 0; col < s.Cols; col++ {
				if !s.Valid(r, col) {
					continue
				}
				idx := r*s.Cols + col
				counts[idx]++
				for k := 0; k < p; k++ {
					sums[idx*p+k] += s.At(r, col, k)
				}
				for ci, k := range catCols {
					m := catVotes[idx*len(catCols)+ci]
					if m == nil {
						m = map[float64]int{}
						catVotes[idx*len(catCols)+ci] = m
					}
					m[s.At(r, col, k)]++
				}
			}
		}
	}
	fv := make([]float64, p)
	for r := 0; r < first.Rows; r++ {
		for col := 0; col < first.Cols; col++ {
			idx := r*first.Cols + col
			if counts[idx] == 0 {
				continue
			}
			for k := 0; k < p; k++ {
				fv[k] = sums[idx*p+k] / float64(counts[idx])
			}
			for ci, k := range catCols {
				best, bestN := 0.0, -1
				for v, n := range catVotes[idx*len(catCols)+ci] {
					if n > bestN || (n == bestN && v < best) {
						best, bestN = v, n
					}
				}
				fv[k] = best
			}
			out.SetVector(r, col, fv)
		}
	}
	return out
}

// featureSet holds the feature vectors of a partition's groups: a slice of
// vectors, one backing array holding a vector per group, and the value
// scratch core.AllocateAttr sorts.
type featureSet struct {
	feats   [][]float64
	backing []float64
	vals    []float64
}

// newFeatureSet returns a feature set for up to groups groups of p
// attributes.
func newFeatureSet(groups, p int) *featureSet {
	return &featureSet{feats: make([][]float64, groups), backing: make([]float64, groups*p)}
}

// copyFeatures copies a segment's vectors of p attributes into one backing
// array, keeping nil for null groups.
func copyFeatures(feats [][]float64, p int) [][]float64 {
	out := make([][]float64, len(feats))
	backing := make([]float64, len(feats)*p)
	for gi, fv := range feats {
		if fv != nil {
			out[gi] = backing[gi*p : gi*p+p : gi*p+p]
			copy(out[gi], fv)
		}
	}
	return out
}

// segmentFeatures allocates one feature vector per group from all cells of
// the group across slices [tb, te]: every attribute but a sum takes
// core.AllocateAttr over the group's valid values in (t, r, c) order, and a
// sum averages the slices' group sums, so a segment's value represents one
// slice's worth. It writes into fs, which must have room for the
// partition's groups, and returns its vectors, which the next call into fs
// overwrites.
func segmentFeatures(c *Cube, part *core.Partition, tb, te int, fs *featureSet) [][]float64 {
	p := c.Slices[0].NumAttrs()
	attrs := c.Slices[0].Attrs
	feats := fs.feats[:len(part.Groups)]
	vals := fs.vals
	for gi, cg := range part.Groups {
		anyValid := false
		fv := fs.backing[gi*p : gi*p+p : gi*p+p]
		for k := 0; k < p; k++ {
			vals = vals[:0]
			// For sum attributes, collect each SLICE's group sum so the
			// representative is a per-slice group value.
			if attrs[k].Agg == grid.Sum {
				for t := tb; t <= te; t++ {
					s := c.Slices[t]
					var sliceSum float64
					sliceValid := false
					for r := cg.RBeg; r <= cg.REnd; r++ {
						for col := cg.CBeg; col <= cg.CEnd; col++ {
							if s.Valid(r, col) {
								sliceSum += s.At(r, col, k)
								sliceValid = true
							}
						}
					}
					if sliceValid {
						vals = append(vals, sliceSum)
						anyValid = true
					}
				}
				if len(vals) > 0 {
					var total float64
					for _, v := range vals {
						total += v
					}
					fv[k] = total / float64(len(vals))
				}
				continue
			}
			for t := tb; t <= te; t++ {
				s := c.Slices[t]
				for r := cg.RBeg; r <= cg.REnd; r++ {
					for col := cg.CBeg; col <= cg.CEnd; col++ {
						if s.Valid(r, col) {
							vals = append(vals, s.At(r, col, k))
							anyValid = true
						}
					}
				}
			}
			if len(vals) > 0 {
				fv[k] = core.AllocateAttr(attrs[k], vals)
			}
		}
		feats[gi] = nil
		if anyValid {
			feats[gi] = fv
		}
	}
	fs.vals = vals
	return feats
}

// segmentIFL evaluates Eq. 3 over slices [tb, te] only.
func segmentIFL(c *Cube, lb lossBasis, part *core.Partition, tb, te int, feats [][]float64) float64 {
	return iflOver(c, lb, part, []Segment{{tb, te}}, [][][]float64{feats})
}

// iflOver is Eq. 3 over the slices of segs: group gi of segment si adds
// core.RectLoss over its rectangle one slice at a time, in (t, r, c) order,
// and core.LossOver reduces the (segment, group) sums in that order. A Sum
// feature is one slice's group value, split over the whole rectangle.
func iflOver(c *Cube, lb lossBasis, part *core.Partition, segs []Segment, feats [][][]float64) float64 {
	groups := len(part.Groups)
	valid := 0
	for _, seg := range segs {
		for t := seg.TBeg; t <= seg.TEnd; t++ {
			valid += lb.valid[t]
		}
	}
	return core.LossOver(len(segs)*groups, valid, c.Slices[0].NumAttrs(), func(i int) float64 {
		seg, cg, fv := segs[i/groups], &part.Groups[i%groups], feats[i/groups][i%groups]
		var sum float64
		for t := seg.TBeg; t <= seg.TEnd; t++ {
			sum = core.RectLoss(sum, c.Slices[t], cg, fv, cg.Size(), lb.spans)
		}
		return sum
	})
}

// lossBasis is what Eq. 3 over a cube reads besides a partition and its
// features: each attribute's value span over the whole cube and each
// slice's valid cells. Repartition computes it once for all its IFLs.
type lossBasis struct {
	spans []float64
	valid []int // valid cells of each slice
}

// newLossBasis scans the cube's slices once for their ranges and valid
// cells.
func newLossBasis(c *Cube) lossBasis {
	p := c.Slices[0].NumAttrs()
	lb := lossBasis{spans: make([]float64, p), valid: make([]int, c.T())}
	lo := make([]float64, p)
	hi := make([]float64, p)
	init := false
	for t, s := range c.Slices {
		rng := s.Ranges()
		if lb.valid[t] = s.ValidCount(); lb.valid[t] == 0 {
			continue
		}
		for k := 0; k < p; k++ {
			if !init {
				lo[k], hi[k] = rng[k].Min, rng[k].Max
			} else {
				if rng[k].Min < lo[k] {
					lo[k] = rng[k].Min
				}
				if rng[k].Max > hi[k] {
					hi[k] = rng[k].Max
				}
			}
		}
		init = true
	}
	for k := 0; k < p; k++ {
		lb.spans[k] = hi[k] - lo[k]
	}
	return lb
}

// ValueAt returns the representative value the reduced cube assigns to
// attribute k of cell (r, c) at time t (§III-C extended with time), and
// whether that cell is represented at all.
func (r *Result) ValueAt(t, row, col, k int) (float64, bool) {
	si := -1
	for i, seg := range r.Segments {
		if t >= seg.TBeg && t <= seg.TEnd {
			si = i
			break
		}
	}
	if si < 0 {
		return 0, false
	}
	gi := r.Partition.GroupOf(row, col)
	fv := r.Features[si][gi]
	if fv == nil {
		return 0, false
	}
	attrs := r.Cube.Slices[0].Attrs
	v := fv[k]
	if attrs[k].Agg == grid.Sum {
		v /= float64(r.Partition.Groups[gi].Size())
	}
	return v, true
}
