package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"spatialrepart/internal/core"
	"spatialrepart/internal/datagen"
	"spatialrepart/internal/regional"
	"spatialrepart/internal/sampling"
	"spatialrepart/internal/sccluster"
	"spatialrepart/internal/weights"
)

// Method names one of the compared data preparations.
type Method string

// The methods of §IV: the unreduced grid, our framework, and the three
// baselines at matched partition counts.
const (
	MethodOriginal        Method = "Original"
	MethodRepartitioning  Method = "Re-partitioning"
	MethodSampling        Method = "Sampling"
	MethodRegionalization Method = "Regionalization"
	MethodClustering      Method = "Clustering"
)

// Methods lists the reduction methods in the paper's presentation order.
var Methods = []Method{MethodRepartitioning, MethodSampling, MethodRegionalization, MethodClustering}

// Reduction bundles one method's train-ready output over a dataset.
type Reduction struct {
	Method Method
	// Data is the train-ready dataset (instances = cells for Original,
	// groups/samples/regions/clusters otherwise).
	Data *core.Dataset
	// CellInstance maps each linear cell index to the instance representing
	// it (−1 for null cells) — the reconstruction map used by Table IV.
	CellInstance []int
	// IFL is the Eq. 3 information loss of the reduction (0 for Original).
	IFL float64
	// ReduceTime is the wall-clock time the reduction itself took.
	ReduceTime time.Duration
	// Report is the instrumented run summary of the re-partitioning search
	// (nil for every other method).
	Report *core.RunReport
}

// Instances returns the number of training instances.
func (r *Reduction) Instances() int { return r.Data.Len() }

// PrepareOriginal wraps the unreduced grid as a Reduction.
func PrepareOriginal(d *datagen.Dataset) (*Reduction, error) {
	data, err := core.GridTrainingData(d.Grid, d.TargetAttr, d.Bounds)
	if err != nil {
		return nil, err
	}
	ci := make([]int, d.Grid.NumCells())
	for i := range ci {
		ci[i] = -1
	}
	for inst, gi := range data.GroupID {
		// Identity partition: group id == linear cell index.
		ci[gi] = inst
	}
	return &Reduction{Method: MethodOriginal, Data: data, CellInstance: ci}, nil
}

// PrepareRepartitioning runs the framework at threshold θ and converts the
// result to a Reduction. It returns the Repartitioned as well so callers can
// reuse the partition count for the baselines. workers is forwarded to
// core.Options.Workers (0 = GOMAXPROCS); the result is identical for every
// setting. The Reduction carries the run's core.RunReport so experiment
// drivers can aggregate per-phase timings (DESIGN.md §3.14).
func PrepareRepartitioning(d *datagen.Dataset, theta float64, workers int) (*Reduction, *core.Repartitioned, error) {
	start := time.Now()
	rp, report, err := core.RepartitionWithReport(d.Grid, core.Options{Threshold: theta, Schedule: core.ScheduleGeometric, Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	elapsed := time.Since(start)
	data, err := rp.TrainingData(d.TargetAttr, d.Bounds)
	if err != nil {
		return nil, nil, err
	}
	instOf := make(map[int]int, data.Len())
	for inst, gi := range data.GroupID {
		instOf[gi] = inst
	}
	ci := make([]int, d.Grid.NumCells())
	for idx := range ci {
		ci[idx] = -1
		gi := rp.Partition.CellToGroup[idx]
		if inst, ok := instOf[gi]; ok && !rp.Partition.Groups[gi].Null {
			ci[idx] = inst
		}
	}
	return &Reduction{
		Method:       MethodRepartitioning,
		Data:         data,
		CellInstance: ci,
		IFL:          rp.IFL,
		ReduceTime:   elapsed,
		Report:       report,
	}, rp, nil
}

// PrepareBaseline runs one §IV-A3 baseline with target partition count t
// (the count produced by the framework at the matched threshold).
func PrepareBaseline(m Method, d *datagen.Dataset, t int) (*Reduction, error) {
	start := time.Now()
	switch m {
	case MethodSampling:
		r, err := sampling.Reduce(d.Grid, t)
		if err != nil {
			return nil, err
		}
		return finishBaseline(m, d, r.Assign, r.IFL, time.Since(start), func() (*core.Dataset, error) {
			return r.TrainingData(d.Grid, d.TargetAttr, d.Bounds)
		})
	case MethodRegionalization:
		r, err := regional.Reduce(d.Grid, t, regional.Options{})
		if err != nil {
			return nil, err
		}
		return finishBaseline(m, d, r.Assign, r.IFL, time.Since(start), func() (*core.Dataset, error) {
			return r.TrainingData(d.Grid, d.TargetAttr, d.Bounds)
		})
	case MethodClustering:
		r, err := sccluster.ReduceGrid(d.Grid, t)
		if err != nil {
			return nil, err
		}
		return finishBaseline(m, d, r.Assign, r.IFL, time.Since(start), func() (*core.Dataset, error) {
			return r.TrainingData(d.Grid, d.TargetAttr, d.Bounds)
		})
	}
	return nil, fmt.Errorf("experiments: unknown baseline %q", m)
}

func finishBaseline(m Method, d *datagen.Dataset, assign []int, ifl float64, elapsed time.Duration, build func() (*core.Dataset, error)) (*Reduction, error) {
	data, err := build()
	if err != nil {
		return nil, err
	}
	instOf := make(map[int]int, data.Len())
	for inst, gi := range data.GroupID {
		instOf[gi] = inst
	}
	ci := make([]int, len(assign))
	for idx, gi := range assign {
		ci[idx] = -1
		if gi >= 0 {
			if inst, ok := instOf[gi]; ok {
				ci[idx] = inst
			}
		}
	}
	return &Reduction{Method: m, Data: data, CellInstance: ci, IFL: ifl, ReduceTime: elapsed}, nil
}

// Scaler standardizes feature columns to zero mean and unit variance — the
// preprocessing SVR/KNN/GBM receive (scikit-learn usage convention).
type Scaler struct {
	mean, std []float64
}

// FitScaler learns per-column statistics from the training rows.
func FitScaler(x [][]float64) *Scaler {
	if len(x) == 0 {
		return &Scaler{}
	}
	p := len(x[0])
	s := &Scaler{mean: make([]float64, p), std: make([]float64, p)}
	for _, row := range x {
		for j, v := range row {
			s.mean[j] += v
		}
	}
	for j := range s.mean {
		s.mean[j] /= float64(len(x))
	}
	for _, row := range x {
		for j, v := range row {
			d := v - s.mean[j]
			s.std[j] += d * d
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / float64(len(x)))
		if s.std[j] == 0 {
			s.std[j] = 1
		}
	}
	return s
}

// Transform returns standardized copies of the rows.
func (s *Scaler) Transform(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		t := make([]float64, len(row))
		for j, v := range row {
			t[j] = (v - s.mean[j]) / s.std[j]
		}
		out[i] = t
	}
	return out
}

// subWeights restricts the dataset's adjacency to the given instances,
// re-indexed to their order in idx.
func subWeights(d *core.Dataset, idx []int) *weights.W {
	pos := make(map[int]int, len(idx))
	for i, j := range idx {
		pos[j] = i
	}
	neighbors := make([][]int, len(idx))
	for i, j := range idx {
		for _, nb := range d.Neighbors[j] {
			if p, ok := pos[nb]; ok {
				neighbors[i] = append(neighbors[i], p)
			}
		}
	}
	return weights.New(neighbors)
}

// observedLag computes, for each instance in idx, the mean response of its
// TRAIN neighbors (the observable spatial lag at prediction time); instances
// with no train neighbor fall back to the train mean.
func observedLag(d *core.Dataset, idx []int, isTrain []bool, values []float64, fallback float64) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		var s float64
		n := 0
		for _, nb := range d.Neighbors[j] {
			if isTrain[nb] {
				s += values[nb]
				n++
			}
		}
		if n > 0 {
			out[i] = s / float64(n)
		} else {
			out[i] = fallback
		}
	}
	return out
}

// measure runs f and returns its wall-clock time and heap allocation delta.
func measure(f func() error) (time.Duration, uint64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, after.TotalAlloc - before.TotalAlloc, err
}
