package experiments

import (
	"time"

	"spatialrepart/internal/core"
	"spatialrepart/internal/grid"
)

// AblationRow compares the two iteration schedules of DESIGN.md §3.2 on one
// dataset and threshold.
type AblationRow struct {
	Dataset    string
	Threshold  float64
	Schedule   string
	Groups     int
	IFL        float64
	Iterations int
	Time       time.Duration
}

// AllocationAblationRow quantifies Algorithm 2's best-of-mean-and-mode rule
// against plain mean allocation (§III-A3's design choice): at a fixed
// partition, the IFL with each allocation.
type AllocationAblationRow struct {
	Dataset     string
	Threshold   float64
	IFLBestOf   float64 // Algorithm 2: min(mean, mode) by local loss
	IFLMeanOnly float64 // mean (rounded for integer attributes) always
}

// AllocationAblation re-partitions each dataset at each threshold, then
// re-allocates the SAME partitions with the mean-only rule and compares the
// information loss. By construction IFLBestOf ≤ IFLMeanOnly per group-
// attribute, so the gap is the value of the mode candidate.
func AllocationAblation(cfg Config) ([]AllocationAblationRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var rows []AllocationAblationRow
	for _, d := range cfg.AllDatasets(cfg.ModelSize) {
		for _, theta := range cfg.Thresholds {
			rp, err := core.Repartition(d.Grid, core.Options{Threshold: theta, Schedule: core.ScheduleGeometric, Workers: cfg.Workers})
			if err != nil {
				return nil, err
			}
			meanFeats := core.AllocateFeaturesMeanOnly(d.Grid, rp.Partition)
			rows = append(rows, AllocationAblationRow{
				Dataset:     d.Name,
				Threshold:   theta,
				IFLBestOf:   rp.IFL,
				IFLMeanOnly: core.IFL(d.Grid, rp.Partition, meanFeats),
			})
		}
	}
	return rows, nil
}

// ExtractorAblationRow compares the paper's bottom-up rectangle growing
// (Algorithm 1) with top-down quadtree splitting at the same IFL threshold:
// the non-null group counts each extractor needs to respect θ.
type ExtractorAblationRow struct {
	Dataset        string
	Threshold      float64
	GreedyGroups   int
	GreedyIFL      float64
	QuadtreeGroups int
	QuadtreeIFL    float64
}

// ExtractorAblation drives both extractors through the same geometric
// ladder search and reports the partition each accepts. Fewer groups at
// equal loss = a better reducer.
func ExtractorAblation(cfg Config) ([]ExtractorAblationRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var rows []ExtractorAblationRow
	for _, d := range cfg.AllDatasets(cfg.ModelSize) {
		norm, _ := d.Grid.Normalized()
		field := core.BuildField(d.Grid, cfg.Workers)
		ladder := field.Ladder()
		for _, theta := range cfg.Thresholds {
			row := ExtractorAblationRow{Dataset: d.Name, Threshold: theta}
			for _, ex := range []struct {
				extract func(float64) *core.Partition
				groups  *int
				ifl     *float64
			}{
				{func(v float64) *core.Partition { return core.ExtractField(field, v) }, &row.GreedyGroups, &row.GreedyIFL},
				{func(v float64) *core.Partition { return core.QuadtreeExtract(norm, v) }, &row.QuadtreeGroups, &row.QuadtreeIFL},
			} {
				groups, ifl, err := coarsestWithin(d.Grid, ladder, theta, ex.extract)
				if err != nil {
					return nil, err
				}
				*ex.groups, *ex.ifl = groups, ifl
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// coarsestWithin runs the geometric ladder search with an arbitrary
// extractor, steered by each rung's IFL, returning the non-null group count
// and IFL of the partition it accepts, whose loss stays within theta.
func coarsestWithin(g *grid.Grid, ladder *core.VariationLadder, theta float64, extract func(float64) *core.Partition) (int, float64, error) {
	eval := func(part *core.Partition) (int, float64) {
		feats := core.AllocateFeatures(g, part)
		valid := 0
		for _, cg := range part.Groups {
			if !cg.Null {
				valid++
			}
		}
		return valid, core.IFL(g, part, feats)
	}
	bestGroups, bestIFL := eval(core.Identity(g))
	_, err := core.SearchLadder(ladder.Len(), core.ScheduleGeometric, theta, func(i int) (bool, float64, error) {
		groups, ifl := eval(extract(ladder.Rung(i)))
		if ifl > theta {
			return false, ifl, nil
		}
		bestGroups, bestIFL = groups, ifl
		return true, ifl, nil
	})
	return bestGroups, bestIFL, err
}

// ScheduleAblation runs the exact (paper-faithful, one heap pop per
// iteration) and geometric (IFL-guided bracketing of the whole ladder)
// schedules side by side on every dataset and threshold. The geometric
// schedule needs at most ⌈log₂(rungs+1)⌉ + 1 iterations. The two accept the
// same partition whenever IFL is monotone in the rung; where it is not,
// exact stops before the first failing rung while geometric may accept a
// coarser rung whose successor fails, both with IFL ≤ θ.
func ScheduleAblation(cfg Config) ([]AblationRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, d := range cfg.AllDatasets(cfg.ModelSize) {
		for _, theta := range cfg.Thresholds {
			for _, s := range []struct {
				name     string
				schedule core.Schedule
			}{
				{"exact", core.ScheduleExact},
				{"geometric", core.ScheduleGeometric},
			} {
				start := time.Now()
				rp, err := core.Repartition(d.Grid, core.Options{Threshold: theta, Schedule: s.schedule, Workers: cfg.Workers})
				if err != nil {
					return nil, err
				}
				rows = append(rows, AblationRow{
					Dataset:    d.Name,
					Threshold:  theta,
					Schedule:   s.name,
					Groups:     rp.ValidGroups(),
					IFL:        rp.IFL,
					Iterations: rp.Iterations,
					Time:       time.Since(start),
				})
			}
		}
	}
	return rows, nil
}
