package core

import (
	"math"
	"strconv"
	"testing"

	"spatialrepart/internal/datagen"
	"spatialrepart/internal/grid"
)

func benchGrid(b *testing.B) *Repartitioned {
	b.Helper()
	ds := datagen.TaxiTripsUni(1, 40, 40)
	rp, err := Repartition(ds.Grid, Options{Threshold: 0.1, Schedule: ScheduleGeometric})
	if err != nil {
		b.Fatal(err)
	}
	return rp
}

func BenchmarkBuildLadder(b *testing.B) {
	ds := datagen.TaxiTripsUni(1, 40, 40)
	norm, _ := ds.Grid.Normalized()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildLadder(norm)
	}
}

// BenchmarkLadder times Ladder alone on the taxi-multi fields of the ingest
// (256²) and batch (1024²) benchmark workloads.
func BenchmarkLadder(b *testing.B) {
	for _, n := range []int{256, 1024} {
		norm, _ := datagen.TaxiTripsMulti(1, n, n).Grid.Normalized()
		field := BuildField(norm, 0)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				field.Ladder()
			}
		})
	}
}

// BenchmarkRepartition1024 times the whole ladder search on the grid of the
// benchmark's batch workload (taxi-multi 1024², seed 42, θ 0.1, geometric:
// 18 rung evaluations), sequentially and on all cores. It is the only core
// benchmark at a size where the rung memo carries most of the work.
func BenchmarkRepartition1024(b *testing.B) {
	g := datagen.TaxiTripsMulti(42, 1024, 1024).Grid
	for _, w := range []int{1, 0} {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Repartition(g, Options{Threshold: 0.1, Schedule: ScheduleGeometric, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExtract(b *testing.B) {
	ds := datagen.TaxiTripsUni(1, 40, 40)
	norm, _ := ds.Grid.Normalized()
	ladder := BuildLadder(norm)
	minVar := ladder.Rung(ladder.Len() / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		extractDirect(norm, minVar)
	}
}

func BenchmarkAllocateFeatures(b *testing.B) {
	ds := datagen.TaxiTripsUni(1, 40, 40)
	rp := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AllocateFeatures(ds.Grid, rp.Partition)
	}
}

func BenchmarkIFL(b *testing.B) {
	ds := datagen.TaxiTripsUni(1, 40, 40)
	rp := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IFL(ds.Grid, rp.Partition, rp.Features)
	}
}

func BenchmarkPartitionAdjacencyList(b *testing.B) {
	rp := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp.Partition.AdjacencyList()
	}
}

func BenchmarkTrainingData(b *testing.B) {
	ds := datagen.TaxiTripsUni(1, 40, 40)
	rp := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rp.TrainingData(0, ds.Bounds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructGrid(b *testing.B) {
	rp := benchGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp.ReconstructGrid()
	}
}

// --- VariationField / parallel-rung comparison -----------------------------
//
// Three implementations of the same θ=0.1 geometric search on a 128×128
// seven-attribute grid:
//
//   SeedReference — the seed's loop: every adjacency check inside Extract
//                   recomputes cellVariation from the attribute vectors.
//   Field         — Repartition with Workers=1: one VariationField build,
//                   each adjacency check is an array load.
//   FieldParallel — Repartition with Workers=GOMAXPROCS: the field build is
//                   row-sharded, and each rung's allocate and loss sweeps are
//                   sharded across the workers.
//
// All three return byte-identical partitions (see parallel_test.go).

func benchLargeMulti(b *testing.B) *grid.Grid {
	b.Helper()
	return datagen.HomeSales(1, 128, 128).Grid
}

// repartitionSeedReference replays the pre-field sequential driver under
// Repartition's ScheduleGeometric search (SearchLadder steered by each
// rung's IFL): every rung is evaluated with the direct extractor over the
// normalized grid and the seed's map-based mode inside feature allocation
// (seedAllocateFeatures below).
func repartitionSeedReference(g *grid.Grid, threshold float64) *Partition {
	norm, _ := g.Normalized()
	ladder := BuildLadder(norm)
	best := Identity(g)
	// The pass callback never errs, so neither does the search.
	_, _ = SearchLadder(ladder.Len(), ScheduleGeometric, threshold, func(i int) (bool, float64, error) {
		part := extractDirect(norm, ladder.Rung(i))
		feats := seedAllocateFeatures(g, part)
		loss := IFL(g, part, feats)
		if loss > threshold {
			return false, loss, nil
		}
		best = part
		return true, loss, nil
	})
	return best
}

// seedAllocateFeatures is Algorithm 2 exactly as the seed shipped it: the
// same loop as allocate, but with the original map-based mode (one map
// allocated per group-attribute). Kept here so the benchmark delta reflects
// the full old-vs-new rung loop, not just the extractor swap.
func seedAllocateFeatures(orig *grid.Grid, part *Partition) [][]float64 {
	p := orig.NumAttrs()
	feats := make([][]float64, len(part.Groups))
	vals := make([]float64, 0, 64)
	for gi, cg := range part.Groups {
		if cg.Null {
			continue
		}
		fv := make([]float64, p)
		for k := 0; k < p; k++ {
			vals = vals[:0]
			for r := cg.RBeg; r <= cg.REnd; r++ {
				for c := cg.CBeg; c <= cg.CEnd; c++ {
					vals = append(vals, orig.At(r, c, k))
				}
			}
			attr := orig.Attrs[k]
			switch {
			case attr.Agg == grid.Sum:
				var s float64
				for _, v := range vals {
					s += v
				}
				fv[k] = s
			case attr.Categorical:
				fv[k] = seedMode(vals)
			default:
				a := mean(vals)
				if attr.Integer {
					a = math.Round(a)
				}
				m := seedMode(vals)
				if localLoss(vals, a) <= localLoss(vals, m) {
					fv[k] = a
				} else {
					fv[k] = m
				}
			}
		}
		feats[gi] = fv
	}
	return feats
}

func seedMode(vals []float64) float64 {
	counts := make(map[float64]int, len(vals))
	for _, v := range vals {
		counts[v]++
	}
	best, bestN := math.Inf(1), -1
	for v, n := range counts {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

func BenchmarkRepartition128SeedReference(b *testing.B) {
	g := benchLargeMulti(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repartitionSeedReference(g, 0.1)
	}
}

func BenchmarkRepartition128Field(b *testing.B) {
	g := benchLargeMulti(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Repartition(g, Options{Threshold: 0.1, Schedule: ScheduleGeometric, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRepartition128FieldParallel(b *testing.B) {
	g := benchLargeMulti(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Repartition(g, Options{Threshold: 0.1, Schedule: ScheduleGeometric, Workers: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildField(b *testing.B) {
	norm, _ := benchLargeMulti(b).Normalized()
	for _, w := range []int{1, 0} {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BuildField(norm, w)
			}
		})
	}
}

func BenchmarkExtractField(b *testing.B) {
	norm, _ := benchLargeMulti(b).Normalized()
	field := BuildField(norm, 1)
	ladder := field.Ladder()
	minVar := ladder.Rung(ladder.Len() / 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractField(field, minVar)
	}
}
