package core

import "spatialrepart/internal/grid"

// CellGroup is a rectangular group of adjacent cells (paper §II). The bounds
// are inclusive: the group spans rows [RBeg, REnd] and columns [CBeg, CEnd].
// Null reports whether the group consists of null (empty) cells.
type CellGroup struct {
	RBeg, REnd int
	CBeg, CEnd int
	Null       bool
}

// Size returns the number of cells in the group.
func (cg CellGroup) Size() int { return (cg.REnd - cg.RBeg + 1) * (cg.CEnd - cg.CBeg + 1) }

// Contains reports whether cell (r, c) lies inside the group's rectangle.
func (cg CellGroup) Contains(r, c int) bool {
	return r >= cg.RBeg && r <= cg.REnd && c >= cg.CBeg && c <= cg.CEnd
}

// Partition maps a grid onto a set of rectangular cell-groups. It carries
// both directions of Algorithm 1's output: Groups is the paper's gIndex
// (group → rectangle bounds) and CellToGroup is cIndex (cell → group id).
type Partition struct {
	Rows, Cols  int
	Groups      []CellGroup
	CellToGroup []int // len Rows*Cols, indexed by r*Cols+c
}

// GroupOf returns the group id of cell (r, c).
func (p *Partition) GroupOf(r, c int) int { return p.CellToGroup[r*p.Cols+c] }

// NumGroups returns the number of cell-groups.
func (p *Partition) NumGroups() int { return len(p.Groups) }

// Identity returns the trivial partition in which every cell of g is its own
// cell-group. It is the starting point of the re-partitioning loop (IFL 0).
func Identity(g *grid.Grid) *Partition {
	p := &Partition{
		Rows:        g.Rows,
		Cols:        g.Cols,
		Groups:      make([]CellGroup, 0, g.NumCells()),
		CellToGroup: make([]int, g.NumCells()),
	}
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			p.CellToGroup[r*g.Cols+c] = len(p.Groups)
			p.Groups = append(p.Groups, CellGroup{RBeg: r, REnd: r, CBeg: c, CEnd: c, Null: !g.Valid(r, c)})
		}
	}
	return p
}

// Extract implements Algorithm 1: it scans the attribute-normalized grid
// row-major from the top-left corner and greedily grows, from each unvisited
// cell, the largest of (a) the vertical run, (b) the horizontal run, and
// (c) the maximal-area rectangle in which every pair of adjacent cells has
// variation ≤ minAdjVariation. Null cells group only with adjacent null
// cells. Every cell ends up in exactly one rectangular cell-group.
//
// It builds the variation field of norm and runs ExtractField over it; a
// caller extracting several rungs of one grid should build the field once.
func Extract(norm *grid.Grid, minAdjVariation float64) *Partition {
	return ExtractField(BuildField(norm), minAdjVariation)
}
