// Package spatialrepart is the public facade of the ML-aware spatial data
// re-partitioning framework (Chowdhury, Meduri, Sarwat — ICDE 2022
// reproduction). It reduces the number of cells in a spatial grid dataset by
// merging adjacent, similar cells into rectangular cell-groups while keeping
// the information loss under a user-specified threshold, then prepares the
// coarser dataset for spatial ML training (feature vectors, adjacency lists,
// and the mapping back to input cells).
//
// The minimal pipeline:
//
//	g := spatialrepart.NewGrid(rows, cols, attrs)   // or GridFromRecords / ReadGridCSV
//	// ... fill cells ...
//	rp, err := spatialrepart.Repartition(g, spatialrepart.Options{Threshold: 0.05})
//	data, err := rp.TrainingData(targetAttr, bounds) // instances, adjacency, centroids
//	// ... train any model in internal/{regress,svm,forest,boost,knn,kriging} ...
//	cellValues, valid, err := rp.DistributeToCells(groupPredictions, attr)
package spatialrepart

import (
	"context"
	"io"

	"spatialrepart/internal/core"
	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
	"spatialrepart/internal/weights"
)

// Grid is an m×n spatial grid of feature-vector cells (paper §II).
type Grid = grid.Grid

// Attribute describes one feature-vector dimension of a grid.
type Attribute = grid.Attribute

// AggType selects how records (and merged cells) aggregate.
type AggType = grid.AggType

// Aggregation types for Attribute.Agg.
const (
	Sum     = grid.Sum
	Average = grid.Average
)

// Bounds is a grid's geographic extent.
type Bounds = grid.Bounds

// Record is one raw spatial data record (a point plus attribute values).
type Record = grid.Record

// Options configures Repartition.
type Options = core.Options

// Schedule selects the re-partitioning iteration schedule.
type Schedule = core.Schedule

// Iteration schedules for Options.Schedule.
const (
	ScheduleExact     = core.ScheduleExact
	ScheduleGeometric = core.ScheduleGeometric
)

// Repartitioned is the framework's output: rectangular cell-groups with
// allocated feature vectors, the information loss achieved, adjacency
// construction, and the group→cell reconstruction of §III-C.
type Repartitioned = core.Repartitioned

// Dataset is the train-ready form of a (re-partitioned) grid (§III-B).
type Dataset = core.Dataset

// CellGroup is one rectangular group of adjacent cells.
type CellGroup = core.CellGroup

// Partition maps a grid onto its cell-groups.
type Partition = core.Partition

// MergeMode selects the axes the homogeneous (naïve) variant merges.
type MergeMode = core.MergeMode

// Merge modes for Homogeneous.
const (
	MergeRows = core.MergeRows
	MergeCols = core.MergeCols
	MergeBoth = core.MergeBoth
)

// W is a binary-contiguity spatial weights object (adjacency lists).
type W = weights.W

// Observer collects metrics and per-phase span timings from an instrumented
// run (DESIGN.md §3.14). Attach one via Options.Obs; a nil Observer costs a
// single branch per hook and never changes results.
type Observer = obs.Observer

// RunReport is the machine-readable summary RepartitionWithReport produces:
// per-phase timings, the IFL trajectory, ladder statistics, and iteration
// counts.
type RunReport = core.RunReport

// NewGrid allocates an all-null rows×cols grid with the given attributes.
func NewGrid(rows, cols int, attrs []Attribute) *Grid {
	return grid.New(rows, cols, attrs)
}

// GridFromRecords aggregates raw point records into a grid (§II), applying
// each attribute's aggregation type. It returns the grid and the number of
// records dropped for falling outside the bounds.
func GridFromRecords(records []Record, bounds Bounds, rows, cols int, attrs []Attribute) (*Grid, int, error) {
	return grid.FromRecords(records, bounds, rows, cols, attrs)
}

// ReadGridCSV parses a grid from the CSV form produced by Grid.WriteCSV.
func ReadGridCSV(r io.Reader) (*Grid, error) {
	return grid.ReadCSV(r)
}

// Repartition runs the ML-aware re-partitioning framework (§III-A): it
// returns the coarsest re-partitioned dataset whose information loss stays
// within Options.Threshold.
func Repartition(g *Grid, opts Options) (*Repartitioned, error) {
	return core.Repartition(g, opts)
}

// ErrCanceled is returned (wrapped around the context's own error) when a
// context-aware run is canceled or exceeds its deadline. Test with
// errors.Is(err, spatialrepart.ErrCanceled).
var ErrCanceled = core.ErrCanceled

// RepartitionCtx is Repartition observing ctx: cancellation and deadlines are
// honored before every rung evaluation, so a long climb stops within one rung
// of the signal. When ctx is never canceled the result is byte-identical to
// Repartition's.
func RepartitionCtx(ctx context.Context, g *Grid, opts Options) (*Repartitioned, error) {
	return core.RepartitionCtx(ctx, g, opts)
}

// NewObserver returns an enabled Observer with a fresh metrics registry.
func NewObserver() *Observer { return obs.New() }

// RepartitionWithReport is Repartition plus a RunReport describing what the
// search did; the returned dataset is byte-identical to Repartition's.
func RepartitionWithReport(g *Grid, opts Options) (*Repartitioned, *RunReport, error) {
	return core.RepartitionWithReport(g, opts)
}

// Homogeneous runs the naïve homogeneous re-partitioning variant (§III-D)
// at merge factor k.
func Homogeneous(g *Grid, k int, mode MergeMode) (*Repartitioned, error) {
	return core.Homogeneous(g, k, mode)
}

// GridTrainingData prepares the ORIGINAL (unreduced) grid for training, one
// instance per valid cell — the comparison baseline of the paper's
// experiments.
func GridTrainingData(g *Grid, targetAttr int, bounds Bounds) (*Dataset, error) {
	return core.GridTrainingData(g, targetAttr, bounds)
}

// NewWeights wraps an adjacency list (for example Dataset.Neighbors) as a
// spatial weights object exposing Moran's I, Geary's C, and spatial lags.
func NewWeights(neighbors [][]int) *W {
	return weights.New(neighbors)
}

// ReadRepartitionJSON loads a re-partitioned dataset persisted with
// Repartitioned.WriteJSON — the partition rectangles, group features and
// metadata, ready for adjacency construction, training-data preparation and
// the §III-C reconstruction in a different process.
func ReadRepartitionJSON(r io.Reader) (*Repartitioned, error) {
	return core.ReadRepartitionJSON(r)
}
