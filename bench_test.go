package spatialrepart_test

// One benchmark per paper table/figure (plus core micro-benchmarks). Each
// experiment benchmark executes the full regeneration pipeline at a reduced
// grid scale so `go test -bench=.` completes in minutes; run cmd/paperbench
// (optionally with REPRO_SCALE=paper) for the full sweeps.

import (
	"testing"

	"spatialrepart"
	"spatialrepart/internal/datagen"
	"spatialrepart/internal/experiments"
)

// benchConfig is the reduced-scale configuration the experiment benchmarks
// share.
func benchConfig() experiments.Config {
	return experiments.Config{
		Seed:         42,
		Sizes:        []experiments.GridSize{{Name: "bench", Rows: 20, Cols: 20}},
		ModelSize:    experiments.GridSize{Name: "bench", Rows: 20, Cols: 20},
		Thresholds:   []float64{0.05, 0.1, 0.15},
		TestFraction: 0.2,
		Classes:      5,
		ClusterK:     6,
		SVRMaxTrain:  500,
		Repeats:      1,
	}
}

// BenchmarkFig5CellReduction regenerates Fig. 5 (spatial cell reduction per
// dataset, size, and IFL threshold).
func BenchmarkFig5CellReduction(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CellReduction(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6ReductionTime regenerates Fig. 6 (re-partitioning time); the
// same sweep as Fig. 5 — the row set carries both measurements.
func BenchmarkFig6ReductionTime(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CellReduction(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var total int64
		for _, r := range rows {
			total += int64(r.ReduceTime)
		}
		_ = total
	}
}

// BenchmarkFig7TrainingTime regenerates Figs. 7-8 (regression/kriging
// training time and memory, original vs re-partitioned).
func BenchmarkFig7TrainingTime(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RegressionTrainingCosts(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9ClusteringClassification regenerates Figs. 9-10 (clustering
// and classification training time and memory).
func BenchmarkFig9ClusteringClassification(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ClusteringClassificationCosts(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2PredictionErrors regenerates Table II (prediction errors of
// five regression models and kriging across all methods and thresholds).
func BenchmarkTable2PredictionErrors(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3ClassificationF1 regenerates Table III (weighted F1).
func BenchmarkTable3ClassificationF1(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4ClusteringCorrectness regenerates Table IV.
func BenchmarkTable4ClusteringCorrectness(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5HomogeneousIFL regenerates Table V.
func BenchmarkTable5HomogeneousIFL(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSchedules compares the exact and geometric iteration
// schedules (DESIGN.md §3.2).
func BenchmarkAblationSchedules(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ScheduleAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Core micro-benchmarks -------------------------------------------------

// BenchmarkRepartitionExact measures one exact-schedule re-partitioning of a
// 48x48 univariate grid at θ = 0.1.
func BenchmarkRepartitionExact(b *testing.B) {
	ds := datagen.TaxiTripsUni(1, 48, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spatialrepart.Repartition(ds.Grid, spatialrepart.Options{
			Threshold: 0.1, Schedule: spatialrepart.ScheduleExact,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepartitionGeometric is the geometric-schedule counterpart.
func BenchmarkRepartitionGeometric(b *testing.B) {
	ds := datagen.TaxiTripsUni(1, 48, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spatialrepart.Repartition(ds.Grid, spatialrepart.Options{
			Threshold: 0.1, Schedule: spatialrepart.ScheduleGeometric,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepartitionMultivariate measures the multivariate path (7
// attributes, the home-sales schema).
func BenchmarkRepartitionMultivariate(b *testing.B) {
	ds := datagen.HomeSales(1, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spatialrepart.Repartition(ds.Grid, spatialrepart.Options{
			Threshold: 0.1, Schedule: spatialrepart.ScheduleGeometric,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepartitionMultivariateSequential pins Workers=1. The default
// (BenchmarkRepartitionMultivariate, Workers unset = all cores) shards each
// rung's allocate and loss sweeps across the cores; this is the single-core
// baseline — same grid, same θ, byte-identical result. The delta between the
// two is the speedup of the intra-rung sharding.
func BenchmarkRepartitionMultivariateSequential(b *testing.B) {
	ds := datagen.HomeSales(1, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spatialrepart.Repartition(ds.Grid, spatialrepart.Options{
			Threshold: 0.1, Schedule: spatialrepart.ScheduleGeometric, Workers: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdjacencyList measures Algorithm 3 on a re-partitioned grid.
func BenchmarkAdjacencyList(b *testing.B) {
	ds := datagen.TaxiTripsUni(1, 48, 48)
	rp, err := spatialrepart.Repartition(ds.Grid, spatialrepart.Options{
		Threshold: 0.1, Schedule: spatialrepart.ScheduleGeometric,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rp.Partition.AdjacencyList()
	}
}

// BenchmarkHomogeneous measures the §III-D naïve variant.
func BenchmarkHomogeneous(b *testing.B) {
	ds := datagen.TaxiTripsUni(1, 48, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spatialrepart.Homogeneous(ds.Grid, 2, spatialrepart.MergeBoth); err != nil {
			b.Fatal(err)
		}
	}
}
