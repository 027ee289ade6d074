// Package metrics implements the evaluation measures of paper §IV-A1: mean
// absolute error, root mean square error, the standard error of regression
// (residual standard error), pseudo r-squared (Eq. 5), the weighted F1-score
// for multi-class classification, and the clustering-correctness agreement
// used by Table IV.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// MAE returns the mean absolute error between predictions and ground truth.
func MAE(pred, truth []float64) (float64, error) {
	if err := sameLen(pred, truth); err != nil {
		return 0, err
	}
	if len(pred) == 0 {
		return 0, nil
	}
	var s float64
	for i, p := range pred {
		s += math.Abs(p - truth[i])
	}
	return s / float64(len(pred)), nil
}

// RMSE returns the root mean square error between predictions and truth.
func RMSE(pred, truth []float64) (float64, error) {
	if err := sameLen(pred, truth); err != nil {
		return 0, err
	}
	if len(pred) == 0 {
		return 0, nil
	}
	var s float64
	for i, p := range pred {
		d := p - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred))), nil
}

// StandardError returns the residual standard error of a regression with p
// estimated parameters: sqrt(RSS / (n − p)). When n ≤ p it degrades to the
// RMSE denominator n so short test sets still yield a number.
func StandardError(pred, truth []float64, p int) (float64, error) {
	if err := sameLen(pred, truth); err != nil {
		return 0, err
	}
	n := len(pred)
	if n == 0 {
		return 0, nil
	}
	var rss float64
	for i, pr := range pred {
		d := pr - truth[i]
		rss += d * d
	}
	dof := n - p
	if dof <= 0 {
		dof = n
	}
	return math.Sqrt(rss / float64(dof)), nil
}

// PseudoR2 implements Eq. 5: 1 − RSS/TSS. A constant truth vector (zero
// total sum of squares) returns an error.
func PseudoR2(pred, truth []float64) (float64, error) {
	if err := sameLen(pred, truth); err != nil {
		return 0, err
	}
	if len(pred) == 0 {
		return 0, fmt.Errorf("metrics: empty input")
	}
	var mean float64
	for _, t := range truth {
		mean += t
	}
	mean /= float64(len(truth))
	var rss, tss float64
	for i, p := range pred {
		d := p - truth[i]
		rss += d * d
		t := truth[i] - mean
		tss += t * t
	}
	if tss == 0 {
		return 0, fmt.Errorf("metrics: constant ground truth, pseudo r-squared undefined")
	}
	return 1 - rss/tss, nil
}

// WeightedF1 computes the weighted mean of class-wise F1 scores, with class
// weights equal to the class support probabilities in the ground truth —
// the multi-class measure of Table III.
func WeightedF1(pred, truth []int) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("metrics: length mismatch %d vs %d", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return 0, fmt.Errorf("metrics: empty input")
	}
	// Floating-point addition is not associative, so the per-class terms
	// are added in ascending class order: map order would change the bits.
	seen := map[int]bool{}
	var classes []int
	for _, t := range truth {
		if !seen[t] {
			seen[t] = true
			classes = append(classes, t)
		}
	}
	sort.Ints(classes)
	var weighted float64
	for _, cls := range classes {
		var tp, fp, fn, support float64
		for i, t := range truth {
			p := pred[i]
			switch {
			case p == cls && t == cls:
				tp++
			case p == cls && t != cls:
				fp++
			case p != cls && t == cls:
				fn++
			}
			if t == cls {
				support++
			}
		}
		var f1 float64
		if 2*tp+fp+fn > 0 {
			f1 = 2 * tp / (2*tp + fp + fn)
		}
		weighted += f1 * support / float64(len(truth))
	}
	return weighted, nil
}

// Accuracy returns the fraction of exact matches between two label slices.
func Accuracy(pred, truth []int) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("metrics: length mismatch %d vs %d", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return 0, nil
	}
	hits := 0
	for i, p := range pred {
		if p == truth[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(pred)), nil
}

// ClusterAgreement measures the Table IV "clustering correctness": the
// percentage of instances assigned to matching clusters under two labelings,
// after greedily mapping each label of `reduced` to the label of `original`
// it overlaps most. Both slices label the same instances (typically the
// input cells after distributing reduced-cluster labels back onto them).
func ClusterAgreement(original, reduced []int) (float64, error) {
	if len(original) != len(reduced) {
		return 0, fmt.Errorf("metrics: length mismatch %d vs %d", len(original), len(reduced))
	}
	if len(original) == 0 {
		return 0, fmt.Errorf("metrics: empty input")
	}
	// overlap[r][o] = #instances with reduced label r and original label o.
	overlap := map[int]map[int]int{}
	for i, o := range original {
		r := reduced[i]
		if overlap[r] == nil {
			overlap[r] = map[int]int{}
		}
		overlap[r][o]++
	}
	mapping := map[int]int{}
	for r, row := range overlap {
		bestO, bestN := 0, -1
		for o, n := range row {
			if n > bestN || (n == bestN && o < bestO) {
				bestO, bestN = o, n
			}
		}
		mapping[r] = bestO
	}
	hits := 0
	for i, o := range original {
		if mapping[reduced[i]] == o {
			hits++
		}
	}
	return 100 * float64(hits) / float64(len(original)), nil
}

// Quantiles returns the q-quantile cut points (q-1 thresholds) of v, used to
// bin continuous targets into the paper's five classes (low, low-medium,
// medium, medium-high, high).
func Quantiles(v []float64, q int) ([]float64, error) {
	if q < 2 {
		return nil, fmt.Errorf("metrics: need at least 2 bins, got %d", q)
	}
	if len(v) == 0 {
		return nil, fmt.Errorf("metrics: empty input")
	}
	sorted := make([]float64, len(v))
	copy(sorted, v)
	sort.Float64s(sorted)
	cuts := make([]float64, q-1)
	for i := 1; i < q; i++ {
		pos := float64(i) / float64(q) * float64(len(sorted)-1)
		lo := int(pos)
		frac := pos - float64(lo)
		if lo+1 < len(sorted) {
			cuts[i-1] = sorted[lo]*(1-frac) + sorted[lo+1]*frac
		} else {
			cuts[i-1] = sorted[lo]
		}
	}
	return cuts, nil
}

// Discretize maps each value to its bin index under the given ascending cut
// points: bin 0 is (−inf, cuts[0]], the last bin is (cuts[last], +inf).
func Discretize(v []float64, cuts []float64) []int {
	out := make([]int, len(v))
	for i, x := range v {
		b := 0
		for b < len(cuts) && x > cuts[b] {
			b++
		}
		out[i] = b
	}
	return out
}

func sameLen(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("metrics: length mismatch %d vs %d", len(a), len(b))
	}
	return nil
}
