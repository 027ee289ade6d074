package sccluster

import (
	"testing"

	"spatialrepart/internal/datagen"
	"spatialrepart/internal/grid"
)

func TestClusterContiguityRespected(t *testing.T) {
	// A 1x6 line with two obvious value blocks: clusters must be contiguous
	// intervals.
	x := [][]float64{{1}, {1}, {1}, {9}, {9}, {9}}
	neighbors := [][]int{{1}, {0, 2}, {1, 3}, {2, 4}, {3, 5}, {4}}
	labels, err := Cluster(x, neighbors, 2)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("left block split: %v", labels)
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Errorf("right block split: %v", labels)
	}
	if labels[0] == labels[3] {
		t.Errorf("blocks merged despite k=2: %v", labels)
	}
}

func TestClusterOnlyAdjacentMerge(t *testing.T) {
	// Two identical values with NO edge between them cannot merge.
	x := [][]float64{{5}, {5}}
	neighbors := [][]int{{}, {}}
	labels, err := Cluster(x, neighbors, 1)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] == labels[1] {
		t.Error("disconnected instances merged")
	}
}

func TestClusterStopsAtK(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}, {5}}
	neighbors := [][]int{{1}, {0, 2}, {1, 3}, {2, 4}, {3}}
	labels, err := Cluster(x, neighbors, 3)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int]bool{}
	for _, l := range labels {
		distinct[l] = true
	}
	if len(distinct) != 3 {
		t.Errorf("clusters = %d, want 3 (%v)", len(distinct), labels)
	}
}

func TestClusterWardPrefersSimilar(t *testing.T) {
	// Chain 10-10-11-50: with k=3 the cheapest merge is the 10-10 pair (or
	// 10-11), never anything with 50.
	x := [][]float64{{10}, {10}, {11}, {50}}
	neighbors := [][]int{{1}, {0, 2}, {1, 3}, {2}}
	labels, err := Cluster(x, neighbors, 3)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != labels[1] {
		t.Errorf("equal neighbors should merge first: %v", labels)
	}
	if labels[3] == labels[2] {
		t.Errorf("outlier merged: %v", labels)
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := Cluster(nil, nil, 1); err == nil {
		t.Error("want empty error")
	}
	if _, err := Cluster([][]float64{{1}}, [][]int{{0, 5}}, 1); err == nil {
		t.Error("want neighbor-range error")
	}
	if _, err := Cluster([][]float64{{1}}, nil, 1); err == nil {
		t.Error("want adjacency-length error")
	}
	if _, err := Cluster([][]float64{{1}}, [][]int{{}}, 0); err == nil {
		t.Error("want k error")
	}
}

func TestClusterLabelsAreDense(t *testing.T) {
	x := [][]float64{{1}, {9}, {1}, {9}}
	neighbors := [][]int{{1}, {0, 2}, {1, 3}, {2}}
	labels, err := Cluster(x, neighbors, 2)
	if err != nil {
		t.Fatal(err)
	}
	maxL := 0
	seen := map[int]bool{}
	for _, l := range labels {
		seen[l] = true
		if l > maxL {
			maxL = l
		}
	}
	if len(seen) != maxL+1 {
		t.Errorf("labels not dense: %v", labels)
	}
}

func TestReduceGrid(t *testing.T) {
	d := datagen.TaxiTripsUni(5, 12, 12)
	target := 30
	red, err := ReduceGrid(d.Grid, target)
	if err != nil {
		t.Fatal(err)
	}
	if red.NumGroups() < target {
		t.Errorf("groups = %d, want ≥ %d", red.NumGroups(), target)
	}
	// Contiguity: every group's member cells form one connected component.
	for gi, members := range red.Groups {
		if !connected(d.Grid, members) {
			t.Fatalf("group %d is not contiguous", gi)
		}
	}
	// Valid cells assigned, null cells not.
	for idx, a := range red.Assign {
		r, c := d.Grid.CellAt(idx)
		if d.Grid.Valid(r, c) != (a >= 0) {
			t.Fatal("assignment/validity mismatch")
		}
	}
}

func TestReduceGridEmpty(t *testing.T) {
	g := grid.New(3, 3, []grid.Attribute{{Name: "v", Agg: grid.Average}})
	if _, err := ReduceGrid(g, 2); err == nil {
		t.Error("want no-valid-cells error")
	}
}

func connected(g *grid.Grid, members []int) bool {
	if len(members) == 0 {
		return false
	}
	inSet := map[int]bool{}
	for _, idx := range members {
		inSet[idx] = true
	}
	seen := map[int]bool{members[0]: true}
	queue := []int{members[0]}
	for len(queue) > 0 {
		idx := queue[0]
		queue = queue[1:]
		r, c := g.CellAt(idx)
		for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			nr, nc := r+d[0], c+d[1]
			if nr < 0 || nr >= g.Rows || nc < 0 || nc >= g.Cols {
				continue
			}
			nidx := nr*g.Cols + nc
			if inSet[nidx] && !seen[nidx] {
				seen[nidx] = true
				queue = append(queue, nidx)
			}
		}
	}
	return len(seen) == len(members)
}

// TestReduceGridDeterministic: repeated calls on one grid return the same
// clustering. Equal Ward costs are common on a grid of repeated values, and
// the merge heap is filled in map order, so without a total order on merges
// the labels changed from call to call.
func TestReduceGridDeterministic(t *testing.T) {
	g := datagen.TaxiTripsUni(42, 36, 36).Grid
	want, err := ReduceGrid(g, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, err := ReduceGrid(g, 200)
		if err != nil {
			t.Fatal(err)
		}
		for idx := range want.Assign {
			if got.Assign[idx] != want.Assign[idx] {
				t.Fatalf("call %d: cell %d in cluster %d, first call put it in %d", i+1, idx, got.Assign[idx], want.Assign[idx])
			}
		}
	}
}
