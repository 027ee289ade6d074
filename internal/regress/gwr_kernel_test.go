package regress

import "testing"

func TestGWRWeightShapes(t *testing.T) {
	// At distance 0 the weight is 1.
	if weight(0, 1) != 1 {
		t.Error("weight at 0 should be 1")
	}
	// The Gaussian has no compact support.
	if weight(1.5, 1) <= 0 {
		t.Error("gaussian should stay positive")
	}
	// It decreases with distance.
	if weight(0.5, 1) >= weight(0.25, 1) {
		t.Error("gaussian not decreasing")
	}
}
