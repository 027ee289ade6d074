package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spatialrepart/internal/grid"
)

// The homogeneous blocks and the member-list baselines once kept their own
// Eq. 3 loops, which summed cell-major over the whole grid, and the blocks
// their own Algorithm 2 gather. Those loops are kept below as references:
// the shared RectLoss and LossOver add the same terms group by group, so an
// IFL may move only in its last bits, and the features must not move at all.

// blobGrid builds a random grid with one attribute of each kind (integer
// sum, float average, integer average, categorical), zeros among the values
// (Eq. 3's zero-denominator guard), null blobs and scattered null cells.
func blobGrid(rng *rand.Rand, rows, cols int) *grid.Grid {
	attrs := []grid.Attribute{
		{Name: "count", Agg: grid.Sum, Integer: true},
		{Name: "price", Agg: grid.Average},
		{Name: "rooms", Agg: grid.Average, Integer: true},
		{Name: "use", Agg: grid.Average, Categorical: true},
	}
	g := grid.New(rows, cols, attrs)
	null := make([]bool, rows*cols)
	for b := rng.Intn(4); b > 0; b-- {
		r0, c0 := rng.Intn(rows), rng.Intn(cols)
		for r := r0; r < min(rows, r0+1+rng.Intn(4)); r++ {
			for c := c0; c < min(cols, c0+1+rng.Intn(4)); c++ {
				null[r*cols+c] = true
			}
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if null[r*cols+c] || rng.Float64() < 0.05 {
				continue
			}
			g.SetVector(r, c, []float64{
				float64(rng.Intn(12)),
				rng.Float64() * 100,
				float64(rng.Intn(6)),
				float64(rng.Intn(3)),
			})
		}
	}
	return g
}

// refAllocateHomogeneous is the blocks' Algorithm 2 gather before they
// became member lists: each attribute's valid values in row-major order.
func refAllocateHomogeneous(g *grid.Grid, part *Partition) [][]float64 {
	feats := make([][]float64, len(part.Groups))
	for gi, cg := range part.Groups {
		if cg.Null {
			continue
		}
		fv := make([]float64, g.NumAttrs())
		for k := range fv {
			var vals []float64
			for r := cg.RBeg; r <= cg.REnd; r++ {
				for c := cg.CBeg; c <= cg.CEnd; c++ {
					if g.Valid(r, c) {
						vals = append(vals, g.At(r, c, k))
					}
				}
			}
			fv[k] = AllocateAttr(g.Attrs[k], vals)
		}
		feats[gi] = fv
	}
	return feats
}

// refIFLValidOnly is the blocks' Eq. 3 loop before RectLoss: cell-major over
// the grid, a Sum feature split over the block's valid cells.
func refIFLValidOnly(g *grid.Grid, part *Partition, feats [][]float64, validInGroup []int) float64 {
	p := g.NumAttrs()
	spans := attrSpans(g)
	var sum float64
	valid := 0
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if !g.Valid(r, c) {
				continue
			}
			valid++
			gi := part.GroupOf(r, c)
			for k := 0; k < p; k++ {
				rep := feats[gi][k]
				if g.Attrs[k].Agg == grid.Sum {
					rep /= float64(validInGroup[gi])
				}
				sum += iflTermAttr(g.Attrs[k], g.At(r, c, k), rep, spans[k])
			}
		}
	}
	if valid == 0 || p == 0 {
		return 0
	}
	return sum / float64(valid*p)
}

// refIFLFor is IFLFor before RectLoss: cell-major over a cell→group
// assignment (−1 for unassigned cells), a Sum feature split over the
// group's valid assigned cells.
func refIFLFor(orig *grid.Grid, assign []int, feats [][]float64) float64 {
	p := orig.NumAttrs()
	sizes := make([]int, len(feats))
	for idx, gi := range assign {
		if gi < 0 {
			continue
		}
		r, c := orig.CellAt(idx)
		if orig.Valid(r, c) {
			sizes[gi]++
		}
	}
	spans := attrSpans(orig)
	var sum float64
	valid := 0
	for idx, gi := range assign {
		r, c := orig.CellAt(idx)
		if !orig.Valid(r, c) || gi < 0 || feats[gi] == nil {
			continue
		}
		valid++
		for k := 0; k < p; k++ {
			rep := feats[gi][k]
			if orig.Attrs[k].Agg == grid.Sum && sizes[gi] > 0 {
				rep /= float64(sizes[gi])
			}
			sum += iflTermAttr(orig.Attrs[k], orig.At(r, c, k), rep, spans[k])
		}
	}
	if valid == 0 || p == 0 {
		return 0
	}
	return sum / float64(valid*p)
}

// closeRel reports whether got lies within 1e-12 relative of want.
func closeRel(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*math.Abs(want)
}

// TestHomogeneousMatchesReferenceLoops: on random grids with null blobs and
// blocks that mix null and valid cells, every block shape keeps the
// reference gather's feature bits and an IFL within 1e-12 relative of the
// cell-major loop's.
func TestHomogeneousMatchesReferenceLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	moved := 0
	for trial := 0; trial < 40; trial++ {
		g := blobGrid(rng, 3+rng.Intn(14), 3+rng.Intn(14))
		for _, mode := range []MergeMode{MergeRows, MergeCols, MergeBoth} {
			for k := 1; k <= 4; k++ {
				rp, err := Homogeneous(g, k, mode)
				if err != nil {
					t.Fatal(err)
				}
				if want := refAllocateHomogeneous(g, rp.Partition); !reflect.DeepEqual(rp.Features, want) {
					t.Fatalf("trial %d %v k=%d: features %v, reference %v", trial, mode, k, rp.Features, want)
				}
				want := refIFLValidOnly(g, rp.Partition, rp.Features, rp.ValidCells)
				if !closeRel(rp.IFL, want) {
					t.Fatalf("trial %d %v k=%d: IFL %v, reference %v", trial, mode, k, rp.IFL, want)
				}
				if rp.IFL != want {
					moved++
				}
			}
		}
	}
	t.Logf("%d of %d block IFLs moved in the last bits", moved, 40*3*4)
}

// TestIFLForMatchesReferenceLoop: random regions (non-contiguous member
// lists over the valid cells) keep an IFL within 1e-12 relative of the
// cell-major loop's. The sampling baseline's split of 1 is held to its own
// reference loop in the reduce tests.
func TestIFLForMatchesReferenceLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 60; trial++ {
		g := blobGrid(rng, 2+rng.Intn(16), 2+rng.Intn(16))
		n := 1 + rng.Intn(8)
		assign := make([]int, g.NumCells())
		groups := make([][]int, n)
		for idx := range assign {
			assign[idx] = -1
			if r, c := g.CellAt(idx); g.Valid(r, c) {
				assign[idx] = rng.Intn(n)
				groups[assign[idx]] = append(groups[assign[idx]], idx)
			}
		}
		split := make([]int, n)
		for gi, members := range groups {
			split[gi] = len(members)
		}
		feats := AllocateFeaturesFor(g, groups)
		if got, want := IFLFor(g, groups, feats, split), refIFLFor(g, assign, feats); !closeRel(got, want) {
			t.Fatalf("trial %d: IFLFor %v, reference %v", trial, got, want)
		}
	}
}
