package sttemporal

import (
	"math"
	"math/rand"
	"testing"

	"spatialrepart/internal/core"
	"spatialrepart/internal/datagen"
	"spatialrepart/internal/grid"
)

// The cube once kept its own Eq. 3 loop and its own copy of Algorithm 2's
// mean-or-mode rule. Both are kept below as references: core.RectLoss and
// core.LossOver add the same terms in (segment, group, t, r, c) order, so
// the IFL may move only in its last bits. core.AllocateAttr adds the Eq. 2
// losses over the sorted values, where the copy added them unsorted, so a
// feature may differ only where the copy's mean and mode losses tie to
// within rounding.

// refIFLOver is iflOver's loop before core.LossOver: cell-major per slice.
func refIFLOver(c *Cube, part *core.Partition, segs []Segment, feats [][][]float64) float64 {
	first := c.Slices[0]
	p := first.NumAttrs()
	attrs := first.Attrs
	spans := newLossBasis(c).spans
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
							rep /= float64(part.Groups[gi].Size())
						}
						sum += refTerm(attrs[k], s.At(r, col, k), rep, spans[k])
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

// refTerm is one Eq. 3 term, as the cube's loop computed it.
func refTerm(attr grid.Attribute, d, rep, span float64) float64 {
	switch {
	case attr.Categorical:
		if d == rep {
			return 0
		}
		return 1
	case d != 0:
		return math.Abs(d-rep) / math.Abs(d)
	case span > 0:
		return math.Abs(d-rep) / span
	}
	return 0
}

// refAllocateAverage is the cube's copy of the mean-or-mode rule, with the
// candidates and their Eq. 2 losses it compared.
func refAllocateAverage(attr grid.Attribute, vals []float64) (v, meanL, modeL float64) {
	if attr.Categorical {
		return refModeOf(vals), 0, 0
	}
	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	if attr.Integer {
		mean = refRoundHalf(mean)
	}
	m := refModeOf(vals)
	meanL, modeL = refMeanLoss(vals, mean), refMeanLoss(vals, m)
	if meanL <= modeL {
		return mean, meanL, modeL
	}
	return m, meanL, modeL
}

func refModeOf(vals []float64) float64 {
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

func refMeanLoss(vals []float64, rep float64) float64 {
	var s float64
	for _, v := range vals {
		s += math.Abs(v - rep)
	}
	return s / float64(len(vals))
}

func refRoundHalf(x float64) float64 {
	if x >= 0 {
		return float64(int64(x + 0.5))
	}
	return -float64(int64(-x + 0.5))
}

// gather returns group cg's valid values of attribute k over slices
// [tb, te] in (t, r, c) order.
func gather(c *Cube, cg core.CellGroup, tb, te, k int) []float64 {
	var vals []float64
	for t := tb; t <= te; t++ {
		s := c.Slices[t]
		for r := cg.RBeg; r <= cg.REnd; r++ {
			for col := cg.CBeg; col <= cg.CEnd; col++ {
				if s.Valid(r, col) {
					vals = append(vals, s.At(r, col, k))
				}
			}
		}
	}
	return vals
}

// TestCubeMatchesReferenceLoops: on random cubes of every datagen dataset
// (slices of a few seeds, so validity changes over time and slices repeat,
// which makes mean and mode losses tie), every segment's features equal the
// copy's, except where the copy's mean and mode losses lie within 1e-15
// relative of each other, and every IFL lies within 1e-12 relative of the
// cell-major loop's over the same features.
func TestCubeMatchesReferenceLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	cubes, flips, values := 0, 0, 0
	names := []string{"taxi-multi", "homesales", "earnings-multi", "taxi-uni", "vehicles-uni", "earnings-uni", "landuse"}
	for trial := 0; trial < 20; trial++ {
		rows, cols, slices := 4+rng.Intn(6), 4+rng.Intn(6), 2+rng.Intn(4)
		seeds := make([]int64, slices)
		for i := range seeds {
			seeds[i] = rng.Int63n(3)
		}
		for _, name := range names {
			gs := make([]*grid.Grid, slices)
			for i, seed := range seeds {
				gs[i] = datagen.ByName(name, seed, rows, cols).Grid
			}
			c, err := NewCube(gs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Repartition(c, Options{Threshold: []float64{0.05, 0.1, 0.2}[rng.Intn(3)]})
			if err != nil {
				t.Fatal(err)
			}
			cubes++
			if got, want := res.IFL, refIFLOver(c, res.Partition, res.Segments, res.Features); math.Abs(got-want) > 1e-12*want {
				t.Fatalf("cube %d: IFL %v, reference loop %v", cubes, got, want)
			}
			attrs := c.Slices[0].Attrs
			buf := newFeatureSet(len(res.Partition.Groups), len(attrs)) // reused, as the spatial phase reuses its set
			for tb := 0; tb < slices; tb++ {
				for te := tb; te < slices; te++ {
					feats := segmentFeatures(c, res.Partition, tb, te, buf)
					segs, fs := []Segment{{tb, te}}, [][][]float64{feats}
					if got, want := iflOver(c, newLossBasis(c), res.Partition, segs, fs), refIFLOver(c, res.Partition, segs, fs); math.Abs(got-want) > 1e-12*want {
						t.Fatalf("cube %d [%d,%d]: IFL %v, reference loop %v", cubes, tb, te, got, want)
					}
					for gi, cg := range res.Partition.Groups {
						if valid := len(gather(c, cg, tb, te, 0)) > 0; valid != (feats[gi] != nil) {
							t.Fatalf("cube %d [%d,%d] group %d: valid cells %v, feature vector %v", cubes, tb, te, gi, valid, feats[gi])
						}
						for k, attr := range attrs {
							if feats[gi] == nil || attr.Agg == grid.Sum {
								continue
							}
							vals := gather(c, cg, tb, te, k)
							if len(vals) == 0 {
								continue
							}
							values++
							want, meanL, modeL := refAllocateAverage(attr, vals)
							if got := feats[gi][k]; got != want {
								if math.Abs(meanL-modeL) > 1e-15*math.Max(meanL, modeL) {
									t.Fatalf("cube %d [%d,%d] group %d attribute %d: %v, copy %v (mean loss %v, mode loss %v)",
										cubes, tb, te, gi, k, got, want, meanL, modeL)
								}
								flips++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d cubes: %d of %d gathered features flipped on a rounding tie", cubes, flips, values)
}

// TestCubeIntegerMeanPastInt64 is the case the cube's own rounding got
// wrong: the integer average of 1e19, 2e19 and 3e19 is 2e19, whose Eq. 2
// loss is below the mode's, but rounding through int64 overflowed it to
// −9.2e18 and the cube served the mode 1e19.
func TestCubeIntegerMeanPastInt64(t *testing.T) {
	attrs := []grid.Attribute{{Name: "v", Agg: grid.Average, Integer: true}}
	var gs []*grid.Grid
	for _, v := range []float64{1e19, 2e19, 3e19} {
		g := grid.New(1, 1, attrs)
		g.Set(0, 0, 0, v)
		gs = append(gs, g)
	}
	c, err := NewCube(gs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Repartition(c, Options{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumSegments() != 1 {
		t.Fatalf("segments = %v, want one", res.Segments)
	}
	if got := res.Features[0][0][0]; got != 2e19 {
		t.Errorf("feature = %v, want the mean 2e19", got)
	}
}
