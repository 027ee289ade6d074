package regress

import (
	"errors"
	"runtime"
	"testing"

	"spatialrepart/internal/mat"
)

// TestGWRPredictMatchesLocalFit: Predict shards its queries, so it must
// return exactly what a loop over localFit returns, bit for bit, on more
// queries than it has ranges.
func TestGWRPredictMatchesLocalFit(t *testing.T) {
	x, y, lat, lon := synthGWRData(8, 200)
	g, err := FitGWR(x, y, lat, lon, GWROptions{K: 25})
	if err != nil {
		t.Fatal(err)
	}
	qx, _, qLat, qLon := synthGWRData(9, 16*runtime.GOMAXPROCS(0)*2+7)
	got, err := g.Predict(qx, qLat, qLon)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qx {
		want, _, err := g.localFit(qx[i], qLat[i], qLon[i], g.K, false, -1)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("query %d: Predict %v, localFit %v", i, got[i], want)
		}
	}
}

// TestGWRPredictReturnsFirstError: Predict fails whenever a query's local
// system is singular, whichever query it is, with the error localFit
// returns for the first failing query. The training points near (0, 0)
// carry two equal features of 1e4, so the ridge is lost in rounding and
// both solvers find the local design singular; the points near (100, 100)
// are an ordinary design whose fits succeed.
func TestGWRPredictReturnsFirstError(t *testing.T) {
	var x [][]float64
	var y, lat, lon []float64
	for i := 0; i < 10; i++ {
		x = append(x, []float64{1e4, 1e4}, []float64{float64(i), float64(i * i % 7)})
		y = append(y, 1, float64(i))
		lat = append(lat, float64(i)*0.01, 100+float64(i)*0.01)
		lon = append(lon, 0, 100+float64(i%3)*0.01)
	}
	g, err := FitGWR(x, y, lat, lon, GWROptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := 16*runtime.GOMAXPROCS(0)*2 + 7
	cases := [][]int{nil, {n / 3, n / 3 * 2, n - 1}}
	for i := 0; i < n; i++ {
		cases = append(cases, []int{i})
	}
	for _, bad := range cases {
		qx := make([][]float64, n)
		qLat, qLon := make([]float64, n), make([]float64, n)
		for i := range qx {
			qx[i], qLat[i], qLon[i] = []float64{1, 2}, 100.02, 100.01
		}
		for _, i := range bad {
			qLat[i], qLon[i] = 0.03, 0
		}
		var want error
		for i := range qx {
			if _, _, err := g.localFit(qx[i], qLat[i], qLon[i], g.K, false, -1); err != nil {
				want = err
				break
			}
		}
		_, err := g.Predict(qx, qLat, qLon)
		if (want == nil) != (len(bad) == 0) || (err == nil) != (want == nil) {
			t.Fatalf("failing queries %v: Predict error %v, first localFit error %v", bad, err, want)
		}
		if want != nil && (err.Error() != want.Error() || !errors.Is(err, mat.ErrSingular)) {
			t.Errorf("failing queries %v: Predict error %v, want %v", bad, err, want)
		}
	}
}
