// Package reduce provides the shared plumbing for the data-reduction
// baselines of paper §IV-A3: converting an arbitrary cell→group membership
// over a spatial grid into group features (Algorithm 2 semantics), the Eq. 3
// information loss, group adjacency, and a train-ready core.Dataset — the
// same outputs the re-partitioning framework produces, so all methods plug
// into one experiment harness.
package reduce

import (
	"fmt"
	"sort"

	"spatialrepart/internal/core"
	"spatialrepart/internal/grid"
)

// Reduced is the output of a baseline reduction over a grid.
type Reduced struct {
	// Assign maps each linear cell index to its group id; −1 marks null
	// cells (which baselines do not assign).
	Assign []int
	// Groups lists the member cell indices of each group.
	Groups [][]int
	// Features holds the per-group feature vectors (Algorithm 2 semantics).
	Features [][]float64
	// IFL is the Eq. 3 information loss of this reduction.
	IFL float64
}

// FromMembership validates an assignment over the grid's valid cells and
// computes groups, features and IFL. Group ids must be dense in [0, max].
func FromMembership(g *grid.Grid, assign []int) (*Reduced, error) {
	if len(assign) != g.NumCells() {
		return nil, fmt.Errorf("reduce: assignment covers %d cells, want %d", len(assign), g.NumCells())
	}
	maxID := -1
	for idx, gi := range assign {
		r, c := g.CellAt(idx)
		if g.Valid(r, c) {
			if gi < 0 {
				return nil, fmt.Errorf("reduce: valid cell %d unassigned", idx)
			}
		} else if gi >= 0 {
			return nil, fmt.Errorf("reduce: null cell %d assigned to group %d", idx, gi)
		}
		if gi > maxID {
			maxID = gi
		}
	}
	groups := make([][]int, maxID+1)
	for idx, gi := range assign {
		if gi >= 0 {
			groups[gi] = append(groups[gi], idx)
		}
	}
	for gi, members := range groups {
		if len(members) == 0 {
			return nil, fmt.Errorf("reduce: group %d is empty (ids must be dense)", gi)
		}
	}
	// Every member is valid, so a Sum feature splits over the whole group.
	split := make([]int, len(groups))
	for gi, members := range groups {
		split[gi] = len(members)
	}
	feats := core.AllocateFeaturesFor(g, groups)
	return &Reduced{
		Assign:   assign,
		Groups:   groups,
		Features: feats,
		IFL:      core.IFLFor(g, groups, feats, split),
	}, nil
}

// NumGroups returns the number of groups.
func (r *Reduced) NumGroups() int { return len(r.Groups) }

// FromSamples builds a Reduced for a sampling-based baseline: each group is
// the Voronoi region (over valid cells, by cell-center distance) of one
// sampled cell, and the group's features are the SAMPLE'S OWN cell vector —
// sampling keeps individual instances rather than aggregates, which is
// exactly why it loses spatial structure (paper §I). The information loss
// therefore uses the sample value directly as every member's representative
// (IFLFor with a split of 1).
func FromSamples(g *grid.Grid, samples []int) (*Reduced, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("reduce: no samples")
	}
	type pt struct{ r, c int }
	pts := make([]pt, len(samples))
	for i, idx := range samples {
		r, c := g.CellAt(idx)
		if !g.Valid(r, c) {
			return nil, fmt.Errorf("reduce: sample %d is a null cell", idx)
		}
		pts[i] = pt{r, c}
	}
	// Multi-source BFS Voronoi: every cell gets the nearest sample by grid
	// geodesic distance, in O(cells) regardless of sample count.
	owner := make([]int, g.NumCells())
	for idx := range owner {
		owner[idx] = -1
	}
	queue := make([]int, 0, g.NumCells())
	for i, p := range pts {
		idx := p.r*g.Cols + p.c
		if owner[idx] != -1 {
			return nil, fmt.Errorf("reduce: duplicate sample at cell %d", idx)
		}
		owner[idx] = i
		queue = append(queue, idx)
	}
	for head := 0; head < len(queue); head++ {
		idx := queue[head]
		rr, cc := g.CellAt(idx)
		for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			nr, nc := rr+d[0], cc+d[1]
			if nr < 0 || nr >= g.Rows || nc < 0 || nc >= g.Cols {
				continue
			}
			nidx := nr*g.Cols + nc
			if owner[nidx] == -1 {
				owner[nidx] = owner[idx]
				queue = append(queue, nidx)
			}
		}
	}
	assign := make([]int, g.NumCells())
	for idx := range assign {
		rr, cc := g.CellAt(idx)
		if g.Valid(rr, cc) {
			assign[idx] = owner[idx]
		} else {
			assign[idx] = -1
		}
	}
	groups := make([][]int, len(samples))
	for idx, gi := range assign {
		if gi >= 0 {
			groups[gi] = append(groups[gi], idx)
		}
	}
	// A sample's own value represents every member, so nothing is split.
	feats := make([][]float64, len(samples))
	split := make([]int, len(samples))
	for i, idx := range samples {
		r, c := g.CellAt(idx)
		feats[i] = make([]float64, g.NumAttrs())
		copy(feats[i], g.Vector(r, c))
		split[i] = 1
	}
	return &Reduced{Assign: assign, Groups: groups, Features: feats, IFL: core.IFLFor(g, groups, feats, split)}, nil
}

// Adjacency derives group-level rook adjacency from cell adjacency.
func (r *Reduced) Adjacency(rows, cols int) [][]int {
	seen := make([]map[int]bool, len(r.Groups))
	for i := range seen {
		seen[i] = map[int]bool{}
	}
	addPair := func(a, b int) {
		if a < 0 || b < 0 || a == b {
			return
		}
		seen[a][b] = true
		seen[b][a] = true
	}
	for rr := 0; rr < rows; rr++ {
		for cc := 0; cc < cols; cc++ {
			idx := rr*cols + cc
			if cc+1 < cols {
				addPair(r.Assign[idx], r.Assign[idx+1])
			}
			if rr+1 < rows {
				addPair(r.Assign[idx], r.Assign[idx+cols])
			}
		}
	}
	out := make([][]int, len(r.Groups))
	for i, set := range seen {
		for j := range set {
			out[i] = append(out[i], j)
		}
		sort.Ints(out[i])
	}
	return out
}

// TrainingData converts the reduction into the train-ready form (§III-B),
// mirroring core.Repartitioned.TrainingData for non-rectangular groups:
// centroids are member-cell centroid means and Corners hold the group's
// bounding-box vertices.
func (r *Reduced) TrainingData(g *grid.Grid, targetAttr int, bounds grid.Bounds) (*core.Dataset, error) {
	if targetAttr >= g.NumAttrs() {
		return nil, fmt.Errorf("reduce: target attribute %d out of range", targetAttr)
	}
	adj := r.Adjacency(g.Rows, g.Cols)
	d := &core.Dataset{}
	instOf := make([]int, len(r.Groups))
	for i := range instOf {
		instOf[i] = -1
	}
	for gi, members := range r.Groups {
		fv := r.Features[gi]
		if fv == nil {
			continue
		}
		instOf[gi] = d.Len()
		x := make([]float64, 0, g.NumAttrs())
		for k := 0; k < g.NumAttrs(); k++ {
			if k == targetAttr {
				continue
			}
			x = append(x, fv[k])
		}
		y := 0.0
		if targetAttr >= 0 {
			y = fv[targetAttr]
		}
		var sLat, sLon float64
		minR, maxR, minC, maxC := g.Rows, -1, g.Cols, -1
		for _, idx := range members {
			rr, cc := g.CellAt(idx)
			lat, lon := bounds.CellCenter(rr, cc, g.Rows, g.Cols)
			sLat += lat
			sLon += lon
			if rr < minR {
				minR = rr
			}
			if rr > maxR {
				maxR = rr
			}
			if cc < minC {
				minC = cc
			}
			if cc > maxC {
				maxC = cc
			}
		}
		n := float64(len(members))
		latB, lonB := bounds.CellCenter(minR, minC, g.Rows, g.Cols)
		latE, lonE := bounds.CellCenter(maxR, maxC, g.Rows, g.Cols)
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
		d.Lat = append(d.Lat, sLat/n)
		d.Lon = append(d.Lon, sLon/n)
		d.Corners = append(d.Corners, [4][2]float64{{latB, lonB}, {latB, lonE}, {latE, lonB}, {latE, lonE}})
		d.GroupSize = append(d.GroupSize, len(members))
		d.GroupID = append(d.GroupID, gi)
	}
	d.Neighbors = make([][]int, d.Len())
	for gi, list := range adj {
		ii := instOf[gi]
		if ii < 0 {
			continue
		}
		var nbrs []int
		for _, ngi := range list {
			if ni := instOf[ngi]; ni >= 0 {
				nbrs = append(nbrs, ni)
			}
		}
		d.Neighbors[ii] = nbrs
	}
	return d, nil
}
