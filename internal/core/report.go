package core

import (
	"context"
	"sort"
	"strings"
	"time"

	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
)

// EvalPoint is one evaluated ladder rung in a run's IFL trajectory: the rung
// index and variation threshold, the information loss the rung produced, the
// partition size, and whether the rung passed the θ bound.
type EvalPoint struct {
	Rung            int     `json:"rung"`
	MinAdjVariation float64 `json:"min_adj_variation"`
	IFL             float64 `json:"ifl"`
	Groups          int     `json:"groups"`
	Pass            bool    `json:"pass"`
}

// PhaseStat summarizes one timed phase (a span histogram) of a run. The
// percentiles are bucket estimates (linear interpolation within the
// containing histogram bucket, clamped to the observed [min, max]), not exact
// order statistics.
type PhaseStat struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MinNS   int64 `json:"min_ns"`
	MaxNS   int64 `json:"max_ns"`
	P50NS   int64 `json:"p50_ns"`
	P95NS   int64 `json:"p95_ns"`
	P99NS   int64 `json:"p99_ns"`
}

// PhaseStatsFrom extracts per-phase timing stats from a registry snapshot's
// span histograms, keyed by span name with the "span." prefix trimmed. Both
// RunReport and the serving /stats endpoint build their phase summaries here
// so the two agree on shape and estimation method. Returns nil when the
// snapshot holds no span histograms.
func PhaseStatsFrom(snap obs.Snapshot) map[string]PhaseStat {
	var phases map[string]PhaseStat
	for name, hs := range snap.Histograms {
		if !strings.HasPrefix(name, obs.SpanPrefix) {
			continue
		}
		if phases == nil {
			phases = map[string]PhaseStat{}
		}
		phases[strings.TrimPrefix(name, obs.SpanPrefix)] = PhaseStat{
			Count:   hs.Count,
			TotalNS: int64(hs.Sum),
			MinNS:   int64(hs.Min),
			MaxNS:   int64(hs.Max),
			P50NS:   int64(hs.Quantile(0.50)),
			P95NS:   int64(hs.Quantile(0.95)),
			P99NS:   int64(hs.Quantile(0.99)),
		}
	}
	return phases
}

// RunReport is the machine-readable summary of one Repartition call —
// the instrumentation layer's answer to "what did the search actually do".
// It is pure bookkeeping: producing it never changes the returned dataset.
type RunReport struct {
	Rows      int     `json:"rows"`
	Cols      int     `json:"cols"`
	Attrs     int     `json:"attrs"`
	Workers   int     `json:"workers"`
	Schedule  string  `json:"schedule"`
	Threshold float64 `json:"threshold"`

	Field       FieldStats `json:"field"`
	LadderRungs int        `json:"ladder_rungs"`

	// Iterations is the result's iteration count; Evaluations counts the
	// rung evaluations recorded in Trajectory. Rungs are evaluated one at a
	// time and never speculatively, so the two are always equal.
	Iterations  int `json:"iterations"`
	Evaluations int `json:"evaluations"`

	IFL             float64 `json:"ifl"`
	MinAdjVariation float64 `json:"min_adj_variation"`
	Groups          int     `json:"groups"`
	ValidGroups     int     `json:"valid_groups"`
	// PeakGroups is the largest partition any evaluated rung produced.
	PeakGroups int `json:"peak_groups"`
	// GroupsEvaluated sums the group counts of every evaluated rung;
	// MemoHits counts the groups among them whose rectangle the run had
	// already evaluated, so their features and loss sum came from the memo
	// (DESIGN.md §3.22). Both are identical for every Workers value.
	GroupsEvaluated int `json:"groups_evaluated"`
	MemoHits        int `json:"memo_hits"`

	TotalNS int64 `json:"total_ns"`

	// Phases holds per-phase timing stats keyed by span name
	// (varfield.build, rung.extract, rung.allocate, rung.loss, …).
	Phases map[string]PhaseStat `json:"phases,omitempty"`
	// Trajectory lists every evaluated rung in ascending rung order.
	Trajectory []EvalPoint `json:"trajectory,omitempty"`
}

// runRecorder accumulates the trajectory and context needed to assemble a
// RunReport. A nil *runRecorder is the disabled state (plain Repartition).
type runRecorder struct {
	obs     *obs.Observer // observer active during the run
	start   time.Time
	field   FieldStats
	rungs   int
	workers int
	evals   []EvalPoint
	groups  int // groups evaluated, summed over rungs
	hits    int // memo hits, summed over rungs
}

// record appends one rung evaluation in visit order; the report sorts by
// rung.
func (rec *runRecorder) record(rung int, minAdjVariation, loss float64, groups, hits int, pass bool) {
	if rec == nil {
		return
	}
	rec.groups += groups
	rec.hits += hits
	rec.evals = append(rec.evals, EvalPoint{
		Rung:            rung,
		MinAdjVariation: minAdjVariation,
		IFL:             loss,
		Groups:          groups,
		Pass:            pass,
	})
}

// scheduleName returns the schedule's report label.
func scheduleName(s Schedule) string {
	if s == ScheduleGeometric {
		return "geometric"
	}
	return "exact"
}

// buildReport assembles the RunReport after a successful run.
func (rec *runRecorder) buildReport(g *grid.Grid, opts Options, rp *Repartitioned) *RunReport {
	total := time.Since(rec.start).Nanoseconds()
	sort.Slice(rec.evals, func(i, j int) bool { return rec.evals[i].Rung < rec.evals[j].Rung })
	peak := len(rp.Partition.Groups)
	for _, e := range rec.evals {
		if e.Groups > peak {
			peak = e.Groups
		}
	}
	r := &RunReport{
		Rows:            g.Rows,
		Cols:            g.Cols,
		Attrs:           g.NumAttrs(),
		Workers:         rec.workers,
		Schedule:        scheduleName(opts.Schedule),
		Threshold:       opts.Threshold,
		Field:           rec.field,
		LadderRungs:     rec.rungs,
		Iterations:      rp.Iterations,
		Evaluations:     len(rec.evals),
		IFL:             rp.IFL,
		MinAdjVariation: rp.MinAdjVariation,
		Groups:          rp.NumGroups(),
		ValidGroups:     rp.ValidGroups(),
		PeakGroups:      peak,
		GroupsEvaluated: rec.groups,
		MemoHits:        rec.hits,
		TotalNS:         total,
		Trajectory:      rec.evals,
	}
	r.Phases = PhaseStatsFrom(rec.obs.Registry().Snapshot())
	return r
}

// RepartitionWithReport is Repartition plus a machine-readable RunReport of
// the search: per-phase timings, the full IFL trajectory, ladder statistics,
// and iteration/evaluation counts. The returned dataset is byte-identical to
// Repartition's for the same grid and options.
//
// When opts.Obs is nil a private observer collects the phase timings; when
// the caller supplies one, the report's Phases reflect that observer's
// registry, which may accumulate across runs if it is shared.
func RepartitionWithReport(g *grid.Grid, opts Options) (*Repartitioned, *RunReport, error) {
	rec := &runRecorder{}
	if opts.Ctx == nil {
		opts.Ctx = context.Background()
	}
	rp, err := repartition(g, opts, rec)
	if err != nil {
		return nil, nil, err
	}
	return rp, rec.buildReport(g, opts, rp), nil
}
