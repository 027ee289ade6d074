package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spatialrepart/internal/grid"
)

// checkPartitionInvariants verifies the structural guarantees every
// partition must satisfy: each cell belongs to exactly one group, group
// rectangles tile the grid without overlap, and null flags match the grid.
func checkPartitionInvariants(t *testing.T, g *grid.Grid, p *Partition) {
	t.Helper()
	seen := make([]int, g.NumCells())
	for i := range seen {
		seen[i] = -1
	}
	total := 0
	for gi, cg := range p.Groups {
		if cg.RBeg < 0 || cg.REnd >= g.Rows || cg.CBeg < 0 || cg.CEnd >= g.Cols || cg.RBeg > cg.REnd || cg.CBeg > cg.CEnd {
			t.Fatalf("group %d has invalid bounds %+v", gi, cg)
		}
		total += cg.Size()
		for r := cg.RBeg; r <= cg.REnd; r++ {
			for c := cg.CBeg; c <= cg.CEnd; c++ {
				idx := r*g.Cols + c
				if seen[idx] != -1 {
					t.Fatalf("cell (%d,%d) in groups %d and %d", r, c, seen[idx], gi)
				}
				seen[idx] = gi
				if p.GroupOf(r, c) != gi {
					t.Fatalf("CellToGroup(%d,%d) = %d, want %d", r, c, p.GroupOf(r, c), gi)
				}
				if g.Valid(r, c) == cg.Null {
					t.Fatalf("group %d null=%v but cell (%d,%d) valid=%v", gi, cg.Null, r, c, g.Valid(r, c))
				}
			}
		}
	}
	if total != g.NumCells() {
		t.Fatalf("groups cover %d cells, want %d", total, g.NumCells())
	}
}

// extractDirect is the independent oracle for Algorithm 1: the same greedy
// scan as ExtractField, but every adjacency check recomputes the Eq. 1
// variation from the normalized attribute vectors instead of reading the
// precomputed field. The field ≡ direct-extract property compares the two.
func extractDirect(norm *grid.Grid, minAdjVariation float64) *Partition {
	rows, cols := norm.Rows, norm.Cols
	visited := make([]bool, rows*cols)
	p := &Partition{
		Rows:        rows,
		Cols:        cols,
		CellToGroup: make([]int, rows*cols),
	}

	// vRun returns the number of consecutive unvisited cells downward from
	// (r, c) — including (r, c) — such that each vertically adjacent pair has
	// variation ≤ minAdjVariation.
	vRun := func(r, c int) int {
		if visited[r*cols+c] {
			return 0
		}
		n := 1
		for r+n < rows && !visited[(r+n)*cols+c] &&
			cellVariation(norm, r+n-1, c, r+n, c) <= minAdjVariation {
			n++
		}
		return n
	}
	hRun := func(r, c int) int {
		if visited[r*cols+c] {
			return 0
		}
		n := 1
		for c+n < cols && !visited[r*cols+c+n] &&
			cellVariation(norm, r, c+n-1, r, c+n) <= minAdjVariation {
			n++
		}
		return n
	}

	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if visited[r*cols+c] {
				continue
			}
			vCount := vRun(r, c)
			hCount := hRun(r, c)

			// Grow the best rectangle from (r, c): width w sweeps rightward
			// along the horizontal run; the feasible height shrinks
			// monotonically as columns are added because every vertical pair
			// within each column and every horizontal pair between adjacent
			// columns must stay within minAdjVariation.
			bestW, bestH, bestArea := 1, vCount, vCount
			h := vCount
			for w := 2; w <= hCount && h > 1; w++ {
				col := c + w - 1
				if vr := vRun(r, col); vr < h {
					h = vr
				}
				for t := 1; t < h; t++ { // row r pairs already vetted by hRun
					if cellVariation(norm, r+t, col-1, r+t, col) > minAdjVariation {
						h = t
						break
					}
				}
				if h <= 1 {
					break
				}
				if area := w * h; area > bestArea {
					bestW, bestH, bestArea = w, h, area
				}
			}

			var cg CellGroup
			switch {
			case bestArea >= hCount && bestArea >= vCount:
				cg = CellGroup{RBeg: r, REnd: r + bestH - 1, CBeg: c, CEnd: c + bestW - 1}
			case hCount >= vCount:
				cg = CellGroup{RBeg: r, REnd: r, CBeg: c, CEnd: c + hCount - 1}
			default:
				cg = CellGroup{RBeg: r, REnd: r + vCount - 1, CBeg: c, CEnd: c}
			}
			cg.Null = !norm.Valid(r, c)

			id := len(p.Groups)
			for rr := cg.RBeg; rr <= cg.REnd; rr++ {
				for cc := cg.CBeg; cc <= cg.CEnd; cc++ {
					visited[rr*cols+cc] = true
					p.CellToGroup[rr*cols+cc] = id
				}
			}
			p.Groups = append(p.Groups, cg)
		}
	}
	return p
}

func TestIdentityPartition(t *testing.T) {
	g := uniGrid([][]float64{
		{1, 2},
		{math.NaN(), 4},
	})
	p := Identity(g)
	if p.NumGroups() != 4 {
		t.Fatalf("identity groups = %d, want 4", p.NumGroups())
	}
	checkPartitionInvariants(t, g, p)
	if !p.Groups[p.GroupOf(1, 0)].Null {
		t.Error("null cell's identity group should be null")
	}
}

// TestExtractPaperExample3 reproduces Example 3: from the top-left of a block
// where all adjacent pairs differ by ≤ the threshold, a 3-wide × 2-high
// rectangle (rCount = 6) beats the horizontal run (hCount = 3) and vertical
// run (vCount = 2), so those 6 cells form one cell-group.
func TestExtractPaperExample3(t *testing.T) {
	// Row 0 breaks vertical continuation above; value 58 fixes span at 35 so
	// raw difference 1 is exactly the Example 2 threshold 0.02857143.
	g := uniGrid([][]float64{
		{58, 50, 40},
		{23, 23, 24},
		{23, 24, 25},
	})
	n, _ := g.Normalized()
	p := Extract(n, 1.0/35.0+1e-12)
	checkPartitionInvariants(t, g, p)
	// All 6 cells of rows 1-2 must share one group spanning the full width.
	gi := p.GroupOf(1, 0)
	cg := p.Groups[gi]
	if cg.RBeg != 1 || cg.REnd != 2 || cg.CBeg != 0 || cg.CEnd != 2 {
		t.Fatalf("block group = %+v, want rows 1-2 cols 0-2", cg)
	}
	if cg.Size() != 6 {
		t.Fatalf("block size = %d, want 6", cg.Size())
	}
}

func TestExtractZeroVariationMergesEqualCells(t *testing.T) {
	g := uniGrid([][]float64{
		{5, 5, 1},
		{5, 5, 2},
	})
	n, _ := g.Normalized()
	p := Extract(n, 0)
	checkPartitionInvariants(t, g, p)
	gi := p.GroupOf(0, 0)
	if p.Groups[gi].Size() != 4 {
		t.Errorf("equal 2x2 block should merge at threshold 0, got size %d", p.Groups[gi].Size())
	}
	if p.GroupOf(0, 2) == p.GroupOf(1, 2) {
		t.Error("cells 1 and 2 must not merge at threshold 0")
	}
}

func TestExtractLoneDissimilarCellIsItsOwnGroup(t *testing.T) {
	g := uniGrid([][]float64{
		{0, 0, 0},
		{0, 100, 0},
		{0, 0, 0},
	})
	n, _ := g.Normalized()
	p := Extract(n, 0.01)
	checkPartitionInvariants(t, g, p)
	cg := p.Groups[p.GroupOf(1, 1)]
	if cg.Size() != 1 {
		t.Errorf("outlier cell should stand alone, got group size %d", cg.Size())
	}
}

func TestExtractNullsMergeOnlyWithNulls(t *testing.T) {
	nan := math.NaN()
	g := uniGrid([][]float64{
		{1, nan, nan},
		{1, nan, nan},
		{1, 1, 1},
	})
	n, _ := g.Normalized()
	p := Extract(n, 1) // maximal threshold: everything similar merges
	checkPartitionInvariants(t, g, p)
	nullGroup := p.GroupOf(0, 1)
	if !p.Groups[nullGroup].Null {
		t.Fatal("null cells should form a null group")
	}
	if p.Groups[nullGroup].Size() != 4 {
		t.Errorf("null 2x2 block size = %d, want 4", p.Groups[nullGroup].Size())
	}
	if p.GroupOf(0, 0) == nullGroup {
		t.Error("valid cell merged into a null group")
	}
}

func TestExtractHorizontalRunWins(t *testing.T) {
	g := uniGrid([][]float64{
		{3, 3, 3, 3},
		{9, 8, 9, 8},
	})
	n, _ := g.Normalized()
	p := Extract(n, 0)
	checkPartitionInvariants(t, g, p)
	cg := p.Groups[p.GroupOf(0, 0)]
	if cg.RBeg != 0 || cg.REnd != 0 || cg.CBeg != 0 || cg.CEnd != 3 {
		t.Errorf("horizontal strip = %+v, want row 0 cols 0-3", cg)
	}
}

func TestExtractVerticalRunWins(t *testing.T) {
	g := uniGrid([][]float64{
		{3, 9},
		{3, 8},
		{3, 9},
		{3, 8},
	})
	n, _ := g.Normalized()
	p := Extract(n, 0)
	checkPartitionInvariants(t, g, p)
	cg := p.Groups[p.GroupOf(0, 0)]
	if cg.RBeg != 0 || cg.REnd != 3 || cg.CBeg != 0 || cg.CEnd != 0 {
		t.Errorf("vertical strip = %+v, want rows 0-3 col 0", cg)
	}
}

// TestExtractRespectsAdjacentPairConstraint: every pair of adjacent cells
// INSIDE a group must have variation ≤ minAdjVariation (the defining property
// of Algorithm 1's output).
func TestExtractAdjacentPairProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 2+rng.Intn(6), 2+rng.Intn(6)
		vals := make([][]float64, rows)
		for r := range vals {
			vals[r] = make([]float64, cols)
			for c := range vals[r] {
				if rng.Float64() < 0.1 {
					vals[r][c] = math.NaN()
				} else {
					vals[r][c] = float64(rng.Intn(12))
				}
			}
		}
		g := uniGrid(vals)
		n, _ := g.Normalized()
		minVar := rng.Float64() * 0.5
		p := Extract(n, minVar)
		for _, cg := range p.Groups {
			for r := cg.RBeg; r <= cg.REnd; r++ {
				for c := cg.CBeg; c <= cg.CEnd; c++ {
					if c+1 <= cg.CEnd && cellVariation(n, r, c, r, c+1) > minVar {
						return false
					}
					if r+1 <= cg.REnd && cellVariation(n, r, c, r+1, c) > minVar {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestExtractTilesGridProperty: partitions always tile the grid exactly.
func TestExtractTilesGridProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(7), 1+rng.Intn(7)
		vals := make([][]float64, rows)
		for r := range vals {
			vals[r] = make([]float64, cols)
			for c := range vals[r] {
				vals[r][c] = rng.Float64() * 10
			}
		}
		g := uniGrid(vals)
		n, _ := g.Normalized()
		p := Extract(n, rng.Float64())
		covered := make([]bool, rows*cols)
		total := 0
		for gi, cg := range p.Groups {
			total += cg.Size()
			for r := cg.RBeg; r <= cg.REnd; r++ {
				for c := cg.CBeg; c <= cg.CEnd; c++ {
					if covered[r*cols+c] {
						return false
					}
					covered[r*cols+c] = true
					if p.GroupOf(r, c) != gi {
						return false
					}
				}
			}
		}
		return total == rows*cols
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestCellGroupHelpers(t *testing.T) {
	cg := CellGroup{RBeg: 1, REnd: 2, CBeg: 3, CEnd: 5}
	if cg.Size() != 6 {
		t.Errorf("Size = %d, want 6", cg.Size())
	}
	if !cg.Contains(2, 4) || cg.Contains(0, 4) || cg.Contains(1, 6) {
		t.Error("Contains is wrong")
	}
}
