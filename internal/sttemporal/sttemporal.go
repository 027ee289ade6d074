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
	// SpatialShare is the fraction of the budget given to the spatial phase
	// (0 means the default 0.5).
	SpatialShare float64
}

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
	share := opts.SpatialShare
	if share == 0 {
		share = 0.5
	}
	if share < 0 || share > 1 {
		return nil, fmt.Errorf("sttemporal: spatial share %v outside [0,1]", share)
	}

	part, spatialIFL, err := spatialPhase(c, opts.Threshold*share)
	if err != nil {
		return nil, err
	}

	res := &Result{Cube: c, Partition: part, SpatialIFL: spatialIFL}

	// Temporal phase: grow segments greedily while the cube-wide IFL of the
	// representation so far stays within the full threshold.
	t := 0
	for t < c.T() {
		end := t
		feats := segmentFeatures(c, part, t, end)
		// Try to extend the segment one slice at a time.
		for end+1 < c.T() {
			candidate := segmentFeatures(c, part, t, end+1)
			if segmentIFL(c, part, t, end+1, candidate) > opts.Threshold {
				break
			}
			end++
			feats = candidate
		}
		res.Segments = append(res.Segments, Segment{TBeg: t, TEnd: end})
		res.Features = append(res.Features, feats)
		t = end + 1
	}

	res.IFL = cubeIFL(c, part, res.Segments, res.Features)
	return res, nil
}

// spatialPhase finds the coarsest shared rectangular partition whose WORST
// per-slice information loss stays within the spatial budget. Candidate
// partitions come from the variation ladder of the temporal-mean grid
// (merging cells that are similar on average); acceptance is checked against
// every individual slice, so the bound holds for the real data rather than
// its average. The ladder is searched by core.SearchLadder under
// core.ScheduleGeometric, steered by the worst-slice loss.
func spatialPhase(c *Cube, budget float64) (*core.Partition, float64, error) {
	mean := meanGrid(c)
	if err := grid.ValidateAttrs(mean.Attrs); err != nil {
		return nil, 0, err
	}
	norm, _ := mean.Normalized()
	field := core.BuildField(norm)
	ladder := field.Ladder()

	worstSliceIFL := func(part *core.Partition) float64 {
		worst := 0.0
		for t := 0; t < c.T(); t++ {
			feats := segmentFeatures(c, part, t, t)
			if ifl := segmentIFL(c, part, t, t, feats); ifl > worst {
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

// segmentFeatures allocates one feature vector per group from all cells of
// the group across slices [tb, te] (Algorithm 2 semantics; sums are averaged
// over slices so a segment's value represents one slice's worth).
func segmentFeatures(c *Cube, part *core.Partition, tb, te int) [][]float64 {
	p := c.Slices[0].NumAttrs()
	attrs := c.Slices[0].Attrs
	feats := make([][]float64, len(part.Groups))
	vals := make([]float64, 0, 64)
	for gi, cg := range part.Groups {
		anyValid := false
		fv := make([]float64, p)
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
				fv[k] = allocateAverage(attrs[k], vals)
			}
		}
		if anyValid {
			feats[gi] = fv
		}
	}
	return feats
}

// allocateAverage mirrors Algorithm 2's average/categorical rule.
func allocateAverage(attr grid.Attribute, vals []float64) float64 {
	if attr.Categorical {
		return modeOf(vals)
	}
	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	if attr.Integer {
		mean = roundHalf(mean)
	}
	m := modeOf(vals)
	if meanLoss(vals, mean) <= meanLoss(vals, m) {
		return mean
	}
	return m
}

// segmentIFL evaluates Eq. 3 over slices [tb, te] only.
func segmentIFL(c *Cube, part *core.Partition, tb, te int, feats [][]float64) float64 {
	return iflOver(c, part, []Segment{{tb, te}}, [][][]float64{feats})
}

// cubeIFL evaluates Eq. 3 over the whole cube.
func cubeIFL(c *Cube, part *core.Partition, segs []Segment, feats [][][]float64) float64 {
	return iflOver(c, part, segs, feats)
}

func iflOver(c *Cube, part *core.Partition, segs []Segment, feats [][][]float64) float64 {
	first := c.Slices[0]
	p := first.NumAttrs()
	attrs := first.Attrs
	spans := cubeSpans(c)
	groupSize := make([]int, len(part.Groups))
	for gi, cg := range part.Groups {
		groupSize[gi] = cg.Size()
	}
	var sum float64
	valid := 0
	for si, seg := range segs {
		for t := seg.TBeg; t <= seg.TEnd; t++ {
			s := c.Slices[t]
			for r := 0; r < s.Rows; r++ {
				for col := 0; col < s.Cols; col++ {
					if !s.Valid(r, col) {
						continue
					}
					gi := part.GroupOf(r, col)
					fv := feats[si][gi]
					if fv == nil {
						continue
					}
					valid++
					for k := 0; k < p; k++ {
						rep := fv[k]
						if attrs[k].Agg == grid.Sum {
							rep /= float64(groupSize[gi])
						}
						sum += core.IFLTermAttr(attrs[k], s.At(r, col, k), rep, spans[k])
					}
				}
			}
		}
	}
	if valid == 0 || p == 0 {
		return 0
	}
	return sum / float64(valid*p)
}

// cubeSpans returns per-attribute value spans over the whole cube.
func cubeSpans(c *Cube) []float64 {
	p := c.Slices[0].NumAttrs()
	spans := make([]float64, p)
	lo := make([]float64, p)
	hi := make([]float64, p)
	init := false
	for _, s := range c.Slices {
		rng := s.Ranges()
		if s.ValidCount() == 0 {
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
		spans[k] = hi[k] - lo[k]
	}
	return spans
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

func modeOf(vals []float64) float64 {
	counts := make(map[float64]int, len(vals))
	for _, v := range vals {
		counts[v]++
	}
	best, bestN := 0.0, -1
	for v, n := range counts {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

func meanLoss(vals []float64, rep float64) float64 {
	var s float64
	for _, v := range vals {
		d := v - rep
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s / float64(len(vals))
}

func roundHalf(x float64) float64 {
	if x >= 0 {
		return float64(int64(x + 0.5))
	}
	return -float64(int64(-x + 0.5))
}
