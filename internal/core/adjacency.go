package core

// AdjacencyList implements Algorithm 3: it derives the neighbor list of every
// cell-group from the group rectangles. Because cell-groups are invariably
// rectangles, the neighboring groups are exactly those owning the cells just
// outside the four edges of the rectangle. The result is a binary adjacency
// list — neighbors carry weight 1, everything else 0 — in the format spatial
// ML systems consume (per-instance neighbor id lists).
//
// Group ids appear in each neighbor list at most once, in ascending order of
// first contact along the boundary walk.
func (p *Partition) AdjacencyList() [][]int {
	neighbors := make([][]int, len(p.Groups))
	seen := make(map[int]struct{}, 8)
	for gi, cg := range p.Groups {
		clear(seen)
		var nList []int
		add := func(r, c int) {
			if r < 0 || r >= p.Rows || c < 0 || c >= p.Cols {
				return
			}
			id := p.CellToGroup[r*p.Cols+c]
			if _, dup := seen[id]; dup {
				return
			}
			seen[id] = struct{}{}
			nList = append(nList, id)
		}
		for c := cg.CBeg; c <= cg.CEnd; c++ {
			add(cg.RBeg-1, c)
			add(cg.REnd+1, c)
		}
		for r := cg.RBeg; r <= cg.REnd; r++ {
			add(r, cg.CBeg-1)
			add(r, cg.CEnd+1)
		}
		neighbors[gi] = nList
	}
	return neighbors
}
