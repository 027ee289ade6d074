package core

import (
	"fmt"

	"spatialrepart/internal/grid"
)

// MergeMode selects which axes the homogeneous (naïve) re-partitioning
// variant of §III-D merges.
type MergeMode int

const (
	// MergeRows merges k adjacent rows into one.
	MergeRows MergeMode = iota
	// MergeCols merges k adjacent columns into one.
	MergeCols
	// MergeBoth merges k adjacent rows and k adjacent columns.
	MergeBoth
)

// String implements fmt.Stringer.
func (m MergeMode) String() string {
	switch m {
	case MergeRows:
		return "rows"
	case MergeCols:
		return "cols"
	case MergeBoth:
		return "rows+cols"
	}
	return fmt.Sprintf("MergeMode(%d)", int(m))
}

// Homogeneous builds the homogeneous re-partitioning of §III-D at factor k:
// the grid is tiled with fixed-size blocks of k rows and/or k columns
// regardless of attribute similarity (edge blocks may be smaller). Unlike
// the ML-aware framework it mixes null and non-null cells inside a block;
// a block counts as null only when all its cells are null. Each block's
// valid cells, in row-major order, are its member list: AllocateFeaturesFor
// and IFLFor give it the baselines' Algorithm 2 and Eq. 3, so a Sum
// feature is split over the block's valid cells only.
func Homogeneous(g *grid.Grid, k int, mode MergeMode) (*Repartitioned, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: homogeneous merge factor must be ≥ 1, got %d", k)
	}
	kr, kc := 1, 1
	switch mode {
	case MergeRows:
		kr = k
	case MergeCols:
		kc = k
	case MergeBoth:
		kr, kc = k, k
	default:
		return nil, fmt.Errorf("core: unknown merge mode %d", mode)
	}
	part := &Partition{
		Rows:        g.Rows,
		Cols:        g.Cols,
		CellToGroup: make([]int, g.NumCells()),
	}
	var members [][]int
	var validCells []int
	for rb := 0; rb < g.Rows; rb += kr {
		re := min(rb+kr-1, g.Rows-1)
		for cb := 0; cb < g.Cols; cb += kc {
			ce := min(cb+kc-1, g.Cols-1)
			id := len(part.Groups)
			var valid []int
			for r := rb; r <= re; r++ {
				for c := cb; c <= ce; c++ {
					part.CellToGroup[r*g.Cols+c] = id
					if g.Valid(r, c) {
						valid = append(valid, r*g.Cols+c)
					}
				}
			}
			part.Groups = append(part.Groups, CellGroup{RBeg: rb, REnd: re, CBeg: cb, CEnd: ce, Null: len(valid) == 0})
			members = append(members, valid)
			validCells = append(validCells, len(valid))
		}
	}
	feats := AllocateFeaturesFor(g, members)
	return &Repartitioned{
		Source:     g,
		Partition:  part,
		Features:   feats,
		IFL:        IFLFor(g, members, feats, validCells),
		ValidCells: validCells,
	}, nil
}
