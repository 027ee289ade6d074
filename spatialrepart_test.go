package spatialrepart_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"spatialrepart"
)

// Facade-level tests: the public API drives the whole pipeline end to end.

func buildGrid(t *testing.T) *spatialrepart.Grid {
	t.Helper()
	attrs := []spatialrepart.Attribute{
		{Name: "count", Agg: spatialrepart.Sum, Integer: true},
		{Name: "price", Agg: spatialrepart.Average},
	}
	g := spatialrepart.NewGrid(4, 4, attrs)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			base := 10.0
			if c >= 2 {
				base = 50
			}
			g.SetVector(r, c, []float64{base, base * 100})
		}
	}
	return g
}

func TestFacadePipeline(t *testing.T) {
	g := buildGrid(t)
	rp, err := spatialrepart.Repartition(g, spatialrepart.Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rp.NumGroups() >= g.NumCells() {
		t.Error("no reduction on a two-block grid")
	}
	if rp.IFL > 0.1 {
		t.Errorf("IFL = %v", rp.IFL)
	}
	bounds := spatialrepart.Bounds{MinLat: 0, MaxLat: 1, MinLon: 0, MaxLon: 1}
	data, err := rp.TrainingData(1, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if data.Len() != rp.ValidGroups() || data.NumFeatures() != 1 {
		t.Fatalf("dataset %dx%d", data.Len(), data.NumFeatures())
	}
	w := spatialrepart.NewWeights(data.Neighbors)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// Reconstruction round trip on the sum attribute.
	groupVals := make([]float64, rp.NumGroups())
	for gi, fv := range rp.Features {
		if fv != nil {
			groupVals[gi] = fv[0]
		}
	}
	vals, valid, err := rp.DistributeToCells(groupVals, g.Attrs[0])
	if err != nil {
		t.Fatal(err)
	}
	for idx, ok := range valid {
		if !ok {
			t.Fatalf("cell %d unexpectedly invalid", idx)
		}
		if vals[idx] != 10 && vals[idx] != 50 {
			t.Errorf("reconstructed count = %v, want 10 or 50", vals[idx])
		}
	}
}

func TestFacadeGridFromRecordsAndCSV(t *testing.T) {
	attrs := []spatialrepart.Attribute{{Name: "count", Agg: spatialrepart.Sum, Integer: true}}
	bounds := spatialrepart.Bounds{MinLat: 0, MaxLat: 1, MinLon: 0, MaxLon: 1}
	recs := []spatialrepart.Record{
		{Lat: 0.2, Lon: 0.2, Values: []float64{1}},
		{Lat: 0.21, Lon: 0.22, Values: []float64{1}},
		{Lat: 0.8, Lon: 0.8, Values: []float64{1}},
	}
	g, dropped, err := spatialrepart.GridFromRecords(recs, bounds, 4, 4, attrs)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Errorf("dropped = %d", dropped)
	}
	var buf bytes.Buffer
	if err := g.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := spatialrepart.ReadGridCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ValidCount() != g.ValidCount() {
		t.Errorf("CSV round trip lost cells: %d vs %d", got.ValidCount(), g.ValidCount())
	}
}

func TestFacadeGridFromRecordsRejectsBadBounds(t *testing.T) {
	attrs := []spatialrepart.Attribute{{Name: "count", Agg: spatialrepart.Sum}}
	recs := []spatialrepart.Record{{Lat: 0.5, Lon: 0.5, Values: []float64{1}}}
	for _, b := range []spatialrepart.Bounds{
		{MinLat: 1, MaxLat: 0, MinLon: 0, MaxLon: 1},          // inverted
		{MinLat: 0, MaxLat: 1, MinLon: 0.5, MaxLon: 0.5},      // empty
		{MinLat: math.NaN(), MaxLat: 1, MinLon: 0, MaxLon: 1}, // NaN
	} {
		if _, _, err := spatialrepart.GridFromRecords(recs, b, 4, 4, attrs); err == nil {
			t.Errorf("bounds %+v accepted, want an error", b)
		}
	}
}

func TestFacadeHomogeneous(t *testing.T) {
	g := buildGrid(t)
	rp, err := spatialrepart.Homogeneous(g, 2, spatialrepart.MergeBoth)
	if err != nil {
		t.Fatal(err)
	}
	if rp.NumGroups() != 4 {
		t.Errorf("2x2 blocks over 4x4 = %d groups, want 4", rp.NumGroups())
	}
}

func TestFacadeGridTrainingData(t *testing.T) {
	g := buildGrid(t)
	bounds := spatialrepart.Bounds{MinLat: 0, MaxLat: 1, MinLon: 0, MaxLon: 1}
	data, err := spatialrepart.GridTrainingData(g, 0, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if data.Len() != 16 {
		t.Errorf("instances = %d, want 16", data.Len())
	}
}

func TestFacadeRepartitionCtx(t *testing.T) {
	g := buildGrid(t)
	rp, err := spatialrepart.RepartitionCtx(context.Background(), g, spatialrepart.Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := spatialrepart.Repartition(g, spatialrepart.Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rp.NumGroups() != plain.NumGroups() || rp.Iterations != plain.Iterations {
		t.Error("context-aware run diverged from plain Repartition")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := spatialrepart.RepartitionCtx(ctx, g, spatialrepart.Options{Threshold: 0.1}); !errors.Is(err, spatialrepart.ErrCanceled) {
		t.Errorf("pre-canceled run: err = %v, want ErrCanceled", err)
	}
}
