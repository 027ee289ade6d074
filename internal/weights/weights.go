// Package weights implements spatial weights structures and the spatial
// autocorrelation statistics of paper §II: binary adjacency-list weights (the
// format PySAL-style systems consume), row-standardized lag operators used by
// the spatial lag/error regression models, and Moran's I / Geary's C.
package weights

import (
	"fmt"
)

// W is a spatial weights object over n instances, stored as adjacency lists
// with unit weights (binary contiguity). Row-standardized operations divide
// by each instance's neighbor count on the fly.
type W struct {
	Neighbors [][]int
}

// New wraps an adjacency list as a weights object. The list is not copied.
func New(neighbors [][]int) *W { return &W{Neighbors: neighbors} }

// N returns the number of instances.
func (w *W) N() int { return len(w.Neighbors) }

// Validate checks structural sanity: indices in range, no self-loops, and
// symmetry (contiguity is symmetric by construction).
func (w *W) Validate() error {
	n := w.N()
	for i, list := range w.Neighbors {
		for _, j := range list {
			if j < 0 || j >= n {
				return fmt.Errorf("weights: neighbor %d of %d out of range [0,%d)", j, i, n)
			}
			if j == i {
				return fmt.Errorf("weights: self-loop at %d", i)
			}
			found := false
			for _, back := range w.Neighbors[j] {
				if back == i {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("weights: asymmetric pair (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// TotalWeight returns Σᵢ Σⱼ wᵢⱼ for binary weights, i.e. twice the number of
// adjacent pairs.
func (w *W) TotalWeight() float64 {
	total := 0
	for _, list := range w.Neighbors {
		total += len(list)
	}
	return float64(total)
}

// Lag computes the row-standardized spatial lag W·x: for each instance, the
// mean of its neighbors' values. Instances without neighbors (islands) lag
// to 0.
func (w *W) Lag(x []float64) ([]float64, error) {
	if len(x) != w.N() {
		return nil, fmt.Errorf("weights: lag input length %d, want %d", len(x), w.N())
	}
	out := make([]float64, len(x))
	for i, list := range w.Neighbors {
		if len(list) == 0 {
			continue
		}
		var s float64
		for _, j := range list {
			s += x[j]
		}
		out[i] = s / float64(len(list))
	}
	return out, nil
}

// MoransI computes Moran's I (Eq. 4) for attribute x under binary weights:
// positive values indicate positive spatial autocorrelation (similar values
// cluster), values near -1/(N-1) indicate randomness. Returns an error for a
// constant attribute (zero variance) or when no pairs are adjacent.
func (w *W) MoransI(x []float64) (float64, error) {
	n := w.N()
	if len(x) != n {
		return 0, fmt.Errorf("weights: MoransI input length %d, want %d", len(x), n)
	}
	sw := w.TotalWeight()
	if sw == 0 {
		return 0, fmt.Errorf("weights: no adjacent pairs")
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	var num, den float64
	for i, list := range w.Neighbors {
		di := x[i] - mean
		den += di * di
		for _, j := range list {
			num += di * (x[j] - mean)
		}
	}
	if den == 0 {
		return 0, fmt.Errorf("weights: constant attribute")
	}
	return float64(n) / sw * num / den, nil
}

// GearysC computes Geary's C: values below 1 indicate positive spatial
// autocorrelation, above 1 negative.
func (w *W) GearysC(x []float64) (float64, error) {
	n := w.N()
	if len(x) != n {
		return 0, fmt.Errorf("weights: GearysC input length %d, want %d", len(x), n)
	}
	sw := w.TotalWeight()
	if sw == 0 {
		return 0, fmt.Errorf("weights: no adjacent pairs")
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	var num, den float64
	for i, list := range w.Neighbors {
		di := x[i] - mean
		den += di * di
		for _, j := range list {
			d := x[i] - x[j]
			num += d * d
		}
	}
	if den == 0 {
		return 0, fmt.Errorf("weights: constant attribute")
	}
	return float64(n-1) / (2 * sw) * num / den, nil
}

// RookNeighbors builds 4-neighbor (rook contiguity) adjacency for a
// rows×cols lattice.
func RookNeighbors(rows, cols int) *W {
	neighbors := make([][]int, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			idx := r*cols + c
			if r > 0 {
				neighbors[idx] = append(neighbors[idx], idx-cols)
			}
			if r < rows-1 {
				neighbors[idx] = append(neighbors[idx], idx+cols)
			}
			if c > 0 {
				neighbors[idx] = append(neighbors[idx], idx-1)
			}
			if c < cols-1 {
				neighbors[idx] = append(neighbors[idx], idx+1)
			}
		}
	}
	return New(neighbors)
}
