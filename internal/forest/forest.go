// Package forest implements random forest regression — the Table II(e)
// model (scikit-learn hyperparameters n_estimators: 225, max_depth: 7,
// min_samples_leaf: 20, criterion: mse).
package forest

import (
	"fmt"
	"math"
	"math/rand"

	"spatialrepart/internal/par"
	"spatialrepart/internal/tree"
)

// Options configures FitForest. Zero values take the paper's Table I
// hyperparameters.
type Options struct {
	NumTrees       int // default 225
	MaxDepth       int // default 7
	MinSamplesLeaf int // default 20
	// MaxFeatures per split; 0 uses ⌈p/3⌉ (the regression convention).
	MaxFeatures int
	Seed        int64
	// Workers bounds the number of goroutines fitting trees concurrently
	// (0 = GOMAXPROCS). Each tree derives its RNG from Seed and its own
	// index, so results are identical for every worker count.
	Workers int
}

func (o *Options) defaults() {
	if o.NumTrees == 0 {
		o.NumTrees = 225
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 7
	}
	if o.MinSamplesLeaf == 0 {
		o.MinSamplesLeaf = 20
	}
}

// Forest is a fitted random forest regressor.
type Forest struct {
	trees []*tree.Tree
}

// FitForest trains a bagged ensemble of CART trees: each tree fits a
// bootstrap resample and samples MaxFeatures features per split.
func FitForest(x [][]float64, y []float64, opts Options) (*Forest, error) {
	n := len(y)
	if len(x) != n {
		return nil, fmt.Errorf("forest: %d feature rows vs %d responses", len(x), n)
	}
	if n == 0 {
		return nil, fmt.Errorf("forest: empty training set")
	}
	opts.defaults()
	maxFeatures := opts.MaxFeatures
	if maxFeatures == 0 {
		maxFeatures = int(math.Ceil(float64(len(x[0])) / 3))
	}
	f := &Forest{trees: make([]*tree.Tree, opts.NumTrees)}
	errs := make([]error, opts.NumTrees)
	par.Ranges(opts.NumTrees, opts.NumTrees, par.Workers(opts.Workers), func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			// Per-tree RNG: results are invariant to worker count and
			// scheduling order.
			rng := rand.New(rand.NewSource(opts.Seed + int64(t)*1_000_003))
			idx := make([]int, n)
			for i := range idx {
				idx[i] = rng.Intn(n)
			}
			tr, err := tree.Fit(x, y, idx, tree.Options{
				MaxDepth:       opts.MaxDepth,
				MinSamplesLeaf: opts.MinSamplesLeaf,
				MaxFeatures:    maxFeatures,
				Rng:            rng,
			})
			if err != nil {
				errs[t] = fmt.Errorf("forest: tree %d: %w", t, err)
				continue
			}
			f.trees[t] = tr
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// Predict averages the tree predictions at each query point.
func (f *Forest) Predict(x [][]float64) ([]float64, error) {
	out := make([]float64, len(x))
	for q, row := range x {
		var s float64
		for _, tr := range f.trees {
			v, err := tr.Predict(row)
			if err != nil {
				return nil, err
			}
			s += v
		}
		out[q] = s / float64(len(f.trees))
	}
	return out, nil
}
