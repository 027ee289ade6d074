package kriging

import (
	"runtime"
	"testing"
)

// TestPredictParallelMatchesSerial: Predict shards its queries, so it must
// return exactly what a loop over predictOne returns, bit for bit, on more
// queries than it has ranges (queries are pure functions of the fitted
// model).
func TestPredictParallelMatchesSerial(t *testing.T) {
	lat, lon, y := synthSurface(11, 300)
	k, err := FitKriging(lat, lon, y, Options{MaxRange: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	qLat, qLon, _ := synthSurface(12, 16*runtime.GOMAXPROCS(0)*2+7)
	got, err := k.Predict(qLat, qLon)
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]cand, len(k.y))
	for q := range qLat {
		if want := k.predictOne(qLat[q], qLon[q], cands); got[q] != want {
			t.Fatalf("query %d differs: Predict %v, predictOne %v", q, got[q], want)
		}
	}
}
