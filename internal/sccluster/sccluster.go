// Package sccluster implements spatially contiguous (contiguity-constrained)
// agglomerative hierarchical clustering in the style of Kim (IEEE T-ITS
// 2021): only clusters that are spatial neighbors may merge, and merges are
// chosen by minimum Ward linkage (the merge that least increases the total
// within-cluster sum of squares). It serves double duty in this repository:
// as the "Clustering" data-reduction baseline of §IV-A3(3) and as the
// spatial clustering ML application evaluated in Figs. 9c/10c and Table IV.
package sccluster

import (
	"container/heap"
	"fmt"

	"spatialrepart/internal/grid"
	"spatialrepart/internal/reduce"
)

// Cluster groups n instances with feature vectors x and contiguity edges
// given by neighbors into (at most) k spatially contiguous clusters, and
// returns a dense cluster id per instance. When the contiguity graph has
// more than k connected components, merging stops at the component count.
func Cluster(x [][]float64, neighbors [][]int, k int) ([]int, error) {
	return ClusterWeighted(x, neighbors, nil, k)
}

// ClusterWeighted is Cluster with per-instance masses: instance i counts as
// weights[i] underlying observations in the Ward linkage (centroids are
// mass-weighted, merge costs use total masses). When a reduced dataset's
// instances stand for whole cell-groups, passing the group sizes makes the
// clustering of the reduced dataset approximate the clustering of the
// original cells — the Table IV comparison. A nil weights slice means unit
// masses.
func ClusterWeighted(x [][]float64, neighbors [][]int, clusterWeights []float64, k int) ([]int, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("sccluster: empty input")
	}
	if len(neighbors) != n {
		return nil, fmt.Errorf("sccluster: %d instances vs %d adjacency lists", n, len(neighbors))
	}
	if clusterWeights != nil && len(clusterWeights) != n {
		return nil, fmt.Errorf("sccluster: %d instances vs %d weights", n, len(clusterWeights))
	}
	if k < 1 {
		return nil, fmt.Errorf("sccluster: k must be ≥ 1, got %d", k)
	}
	p := len(x[0])

	// Union-find over cluster ids with per-cluster state.
	parent := make([]int, n)
	size := make([]float64, n)
	sum := make([][]float64, n) // mass-weighted feature sums
	version := make([]int, n)   // bumped on every merge for lazy heap entries
	adj := make([]map[int]bool, n)
	for i := 0; i < n; i++ {
		parent[i] = i
		wi := 1.0
		if clusterWeights != nil {
			if clusterWeights[i] <= 0 {
				return nil, fmt.Errorf("sccluster: weight of instance %d must be positive", i)
			}
			wi = clusterWeights[i]
		}
		size[i] = wi
		s := make([]float64, p)
		for j, v := range x[i] {
			s[j] = v * wi
		}
		sum[i] = s
		adj[i] = make(map[int]bool, len(neighbors[i]))
		for _, j := range neighbors[i] {
			if j < 0 || j >= n {
				return nil, fmt.Errorf("sccluster: neighbor %d of %d out of range", j, i)
			}
			if j != i {
				adj[i][j] = true
			}
		}
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}

	ward := func(a, b int) float64 {
		na, nb := size[a], size[b]
		var d2 float64
		for j := 0; j < p; j++ {
			d := sum[a][j]/na - sum[b][j]/nb
			d2 += d * d
		}
		return na * nb / (na + nb) * d2
	}

	h := &mergeHeap{}
	push := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		heap.Push(h, merge{cost: ward(a, b), a: a, b: b, va: version[a], vb: version[b]})
	}
	for i := 0; i < n; i++ {
		for j := range adj[i] {
			if i < j {
				push(i, j)
			}
		}
	}

	clusters := n
	for clusters > k && h.Len() > 0 {
		m := heap.Pop(h).(merge)
		a, b := find(m.a), find(m.b)
		if a == b || m.va != version[m.a] || m.vb != version[m.b] || a != m.a || b != m.b {
			continue // stale entry
		}
		// Merge b into a.
		parent[b] = a
		size[a] += size[b]
		for j := 0; j < p; j++ {
			sum[a][j] += sum[b][j]
		}
		version[a]++
		version[b]++
		delete(adj[a], b)
		delete(adj[b], a)
		for c := range adj[b] {
			cr := find(c)
			delete(adj[cr], b)
			if cr != a {
				adj[a][cr] = true
				adj[cr][a] = true
			}
		}
		adj[b] = nil
		for c := range adj[a] {
			push(a, find(c))
		}
		clusters--
	}

	// Dense labels.
	labelOf := map[int]int{}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		r := find(i)
		l, ok := labelOf[r]
		if !ok {
			l = len(labelOf)
			labelOf[r] = l
		}
		out[i] = l
	}
	return out, nil
}

type merge struct {
	cost   float64
	a, b   int
	va, vb int
}

// mergeHeap pops the cheapest merge first, ties broken on the pair (a, b):
// entries are pushed while ranging over the adjacency maps, in Go's random
// map order, so without a total order equal costs would pop in a different
// order on every run and the same input could cluster differently.
type mergeHeap []merge

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	x, y := h[i], h[j]
	if x.cost != y.cost {
		return x.cost < y.cost
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(merge)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// ReduceGrid applies contiguity-constrained clustering to the grid's valid
// cells (on attribute-normalized features) and returns the clustering-based
// data reduction with t target clusters.
func ReduceGrid(g *grid.Grid, t int) (*reduce.Reduced, error) {
	norm, _ := g.Normalized()
	var feats [][]float64
	instOf := make([]int, g.NumCells())
	for i := range instOf {
		instOf[i] = -1
	}
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			if !g.Valid(r, c) {
				continue
			}
			instOf[r*g.Cols+c] = len(feats)
			fv := make([]float64, norm.NumAttrs())
			copy(fv, norm.Vector(r, c))
			feats = append(feats, fv)
		}
	}
	if len(feats) == 0 {
		return nil, fmt.Errorf("sccluster: grid has no valid cells")
	}
	neighbors := make([][]int, len(feats))
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			i := instOf[r*g.Cols+c]
			if i < 0 {
				continue
			}
			if c+1 < g.Cols && instOf[r*g.Cols+c+1] >= 0 {
				j := instOf[r*g.Cols+c+1]
				neighbors[i] = append(neighbors[i], j)
				neighbors[j] = append(neighbors[j], i)
			}
			if r+1 < g.Rows && instOf[(r+1)*g.Cols+c] >= 0 {
				j := instOf[(r+1)*g.Cols+c]
				neighbors[i] = append(neighbors[i], j)
				neighbors[j] = append(neighbors[j], i)
			}
		}
	}
	labels, err := Cluster(feats, neighbors, t)
	if err != nil {
		return nil, err
	}
	assign := make([]int, g.NumCells())
	for idx := range assign {
		if instOf[idx] >= 0 {
			assign[idx] = labels[instOf[idx]]
		} else {
			assign[idx] = -1
		}
	}
	return reduce.FromMembership(g, assign)
}
