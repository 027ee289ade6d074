package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMAE(t *testing.T) {
	got, err := MAE([]float64{1, 2, 3}, []float64{2, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if want := (1.0 + 0 + 2) / 3; got != want {
		t.Errorf("MAE = %v, want %v", got, want)
	}
	if _, err := MAE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("want length error")
	}
	if got, _ := MAE(nil, nil); got != 0 {
		t.Error("empty MAE should be 0")
	}
}

func TestRMSE(t *testing.T) {
	got, err := RMSE([]float64{0, 0}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Sqrt((9.0 + 16.0) / 2); math.Abs(got-want) > 1e-12 {
		t.Errorf("RMSE = %v, want %v", got, want)
	}
}

func TestRMSEAtLeastMAE(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		p := make([]float64, n)
		y := make([]float64, n)
		for i := range p {
			p[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		mae, _ := MAE(p, y)
		rmse, _ := RMSE(p, y)
		return rmse >= mae-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStandardError(t *testing.T) {
	pred := []float64{1, 2, 3, 4}
	truth := []float64{2, 2, 2, 4}
	// RSS = 1 + 0 + 1 + 0 = 2, n − p = 4 − 2 = 2.
	got, err := StandardError(pred, truth, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Sqrt(1.0); got != want {
		t.Errorf("SE = %v, want %v", got, want)
	}
	// Degenerate dof falls back to n.
	got, err = StandardError(pred, truth, 10)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Sqrt(2.0 / 4.0); got != want {
		t.Errorf("SE fallback = %v, want %v", got, want)
	}
}

func TestPseudoR2(t *testing.T) {
	// Perfect predictions → R² = 1.
	got, err := PseudoR2([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("perfect R² = %v, want 1", got)
	}
	// Predicting the mean → R² = 0.
	got, err = PseudoR2([]float64{2, 2, 2}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("mean-predictor R² = %v, want 0", got)
	}
	if _, err := PseudoR2([]float64{1, 1}, []float64{5, 5}); err == nil {
		t.Error("want constant-truth error")
	}
	if _, err := PseudoR2(nil, nil); err == nil {
		t.Error("want empty-input error")
	}
}

func TestWeightedF1Perfect(t *testing.T) {
	got, err := WeightedF1([]int{0, 1, 2, 1}, []int{0, 1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("perfect F1 = %v, want 1", got)
	}
}

func TestWeightedF1HandComputed(t *testing.T) {
	// truth: [0,0,1,1]; pred: [0,1,1,1].
	// class 0: tp=1, fp=0, fn=1 → F1 = 2/3, support 2.
	// class 1: tp=2, fp=1, fn=0 → F1 = 4/5, support 2.
	// weighted = 0.5·(2/3) + 0.5·(4/5).
	got, err := WeightedF1([]int{0, 1, 1, 1}, []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*(2.0/3.0) + 0.5*(4.0/5.0)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("F1 = %v, want %v", got, want)
	}
}

func TestWeightedF1Errors(t *testing.T) {
	if _, err := WeightedF1([]int{1}, []int{1, 2}); err == nil {
		t.Error("want length error")
	}
	if _, err := WeightedF1(nil, nil); err == nil {
		t.Error("want empty error")
	}
}

// TestWeightedF1Repeats pins the summation order: the per-class terms are
// added in ascending class order, so every call returns the same bits. Added
// in map order, the bits on this input changed from call to call.
func TestWeightedF1Repeats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pred, truth := make([]int, 997), make([]int, 997)
	for i := range truth {
		truth[i] = rng.Intn(9)
		pred[i] = truth[i]
		if rng.Float64() < 0.4 {
			pred[i] = rng.Intn(9)
		}
	}
	var want float64
	for cls := 0; cls < 9; cls++ {
		var tp, fp, fn, support float64
		for i, y := range truth {
			switch {
			case pred[i] == cls && y == cls:
				tp++
			case pred[i] == cls:
				fp++
			case y == cls:
				fn++
			}
			if y == cls {
				support++
			}
		}
		want += 2 * tp / (2*tp + fp + fn) * support / float64(len(truth))
	}
	for i := 0; i < 200; i++ {
		got, err := WeightedF1(pred, truth)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: WeightedF1 = %v, want %v (ascending class order)", i, got, want)
		}
	}
}

func TestWeightedF1Range(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		p := make([]int, n)
		y := make([]int, n)
		for i := range p {
			p[i], y[i] = rng.Intn(5), rng.Intn(5)
		}
		f1, err := WeightedF1(p, y)
		return err == nil && f1 >= 0 && f1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAccuracy(t *testing.T) {
	got, err := Accuracy([]int{1, 2, 3}, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2.0 / 3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Accuracy = %v, want %v", got, want)
	}
	if _, err := Accuracy([]int{1}, nil); err == nil {
		t.Error("want length error")
	}
}

func TestClusterAgreementIdentical(t *testing.T) {
	got, err := ClusterAgreement([]int{0, 0, 1, 1, 2}, []int{0, 0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Errorf("agreement = %v, want 100", got)
	}
}

func TestClusterAgreementLabelPermutation(t *testing.T) {
	// Same clustering under permuted labels must still score 100.
	got, err := ClusterAgreement([]int{0, 0, 1, 1}, []int{7, 7, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Errorf("agreement under relabeling = %v, want 100", got)
	}
}

func TestClusterAgreementPartial(t *testing.T) {
	// reduced merges clusters 0 and 1 of original: best mapping recovers at
	// most the majority side.
	got, err := ClusterAgreement([]int{0, 0, 0, 1, 1}, []int{4, 4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != 60 {
		t.Errorf("agreement = %v, want 60", got)
	}
	if _, err := ClusterAgreement([]int{1}, []int{1, 2}); err == nil {
		t.Error("want length error")
	}
	if _, err := ClusterAgreement(nil, nil); err == nil {
		t.Error("want empty error")
	}
}

func TestQuantilesAndDiscretize(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cuts, err := Quantiles(v, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 4 {
		t.Fatalf("cuts = %v, want 4 values", cuts)
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] < cuts[i-1] {
			t.Fatal("cuts must be ascending")
		}
	}
	labels := Discretize(v, cuts)
	// Five roughly equal bins.
	counts := map[int]int{}
	for _, l := range labels {
		if l < 0 || l > 4 {
			t.Fatalf("label %d out of range", l)
		}
		counts[l]++
	}
	if len(counts) != 5 {
		t.Errorf("bins used = %d, want 5 (counts %v)", len(counts), counts)
	}
}

func TestQuantilesErrors(t *testing.T) {
	if _, err := Quantiles(nil, 5); err == nil {
		t.Error("want empty error")
	}
	if _, err := Quantiles([]float64{1}, 1); err == nil {
		t.Error("want bins error")
	}
}

func TestDiscretizeBoundaries(t *testing.T) {
	labels := Discretize([]float64{-1, 0, 0.5, 1, 2}, []float64{0, 1})
	want := []int{0, 0, 1, 1, 2}
	for i := range want {
		if labels[i] != want[i] {
			t.Errorf("labels = %v, want %v", labels, want)
			break
		}
	}
}
