package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
)

// Schedule selects how many rungs of the variation ladder the driver climbs
// per iteration (DESIGN.md §3.2).
type Schedule int

const (
	// ScheduleExact pops one distinct min-adjacent variation per iteration,
	// exactly as §III-A1 describes. Converges in O(#distinct variations)
	// iterations, each re-extracting the whole grid.
	ScheduleExact Schedule = iota
	// ScheduleGeometric doubles the climb per iteration and, once the IFL
	// threshold is exceeded, bisects back to the largest rung whose IFL still
	// satisfies the threshold. O(log #variations) iterations; returns the
	// same partition as ScheduleExact whenever IFL is monotone in the rung,
	// which it is in practice.
	ScheduleGeometric
)

// Options configures Repartition.
type Options struct {
	// Threshold is the user-specified information-loss bound θ ∈ [0, 1].
	Threshold float64
	// Schedule picks the iteration schedule; default ScheduleExact.
	Schedule Schedule
	// Workers bounds the goroutines used for the variation-field build and,
	// within each rung, for feature allocation and the information-loss
	// sweep. 0 means runtime.GOMAXPROCS(0); 1 forces the sequential path.
	// Rungs are evaluated one at a time and no value depends on how the work
	// is sharded, so the returned Partition, Features, and IFL are
	// byte-identical for every value.
	Workers int
	// Obs, when non-nil, receives metrics and per-phase span timings from
	// the run (DESIGN.md §3.14). Instrumentation only reads values the
	// search already computed, so attaching an observer never changes the
	// returned dataset; when nil, every hook is a single predictable branch.
	Obs *obs.Observer
	// Ctx, when non-nil, cancels the run: the driver checks it before every
	// rung evaluation and returns an error wrapping ErrCanceled (and the
	// context's own error) within at most one in-flight rung of the
	// cancellation. Nil means the run is never canceled. An un-canceled
	// context never changes the returned dataset — the checkpoints are
	// read-only branches.
	Ctx context.Context
}

// Repartitioned is the output of the framework: the re-partitioned dataset
// d̄ of §III — a set of rectangular cell-groups with allocated feature
// vectors, plus the bookkeeping needed to train ML models (adjacency) and to
// map predictions back to input cells.
type Repartitioned struct {
	Source    *grid.Grid  // the original input grid (not copied)
	Partition *Partition  // group rectangles and the cell→group index
	Features  [][]float64 // per-group feature vectors; nil for null groups
	IFL       float64     // information loss of this partition vs. Source

	// ValidCells, when non-nil, holds the number of VALID source cells in
	// each cell-group. Constructors whose rectangles may mix null and valid
	// cells (Homogeneous) must set it; when nil, every cell of a non-null
	// group is valid — the ML-aware invariant — and counts fall back to
	// CellGroup.Size().
	ValidCells []int

	Iterations      int     // extract/allocate/loss iterations performed
	MinAdjVariation float64 // the accepted min-adjacent variation
}

// GroupValidCells returns the number of valid source cells in group gi.
func (rp *Repartitioned) GroupValidCells(gi int) int {
	if rp.ValidCells != nil {
		return rp.ValidCells[gi]
	}
	cg := rp.Partition.Groups[gi]
	if cg.Null {
		return 0
	}
	return cg.Size()
}

// NumGroups returns the number of cell-groups (null groups included).
func (rp *Repartitioned) NumGroups() int { return len(rp.Partition.Groups) }

// ValidGroups returns the number of non-null cell-groups, i.e. the number of
// training instances the re-partitioned dataset yields.
func (rp *Repartitioned) ValidGroups() int {
	n := 0
	for _, cg := range rp.Partition.Groups {
		if !cg.Null {
			n++
		}
	}
	return n
}

// ErrThreshold is returned when Options.Threshold is outside [0, 1].
var ErrThreshold = errors.New("core: information-loss threshold must lie in [0, 1]")

// ErrCanceled is wrapped into the error returned when a run's context is
// canceled or its deadline expires; the context's error (context.Canceled or
// context.DeadlineExceeded) is wrapped alongside, so both
// errors.Is(err, ErrCanceled) and errors.Is(err, ctx.Err()) hold.
var ErrCanceled = errors.New("core: repartition canceled")

// canceledErr wraps a canceled context's error in ErrCanceled.
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
}

// RepartitionCtx is Repartition with cancellation: the search observes ctx at
// a cheap checkpoint before each rung evaluation and abandons the run with an
// error wrapping ErrCanceled within at most one in-flight rung. Everything
// else — determinism across worker counts included — is identical to
// Repartition.
// ctx must be non-nil, as throughout the standard library's context
// conventions; pass context.Background() explicitly (or use Repartition)
// when no cancellation is wanted.
func RepartitionCtx(ctx context.Context, g *grid.Grid, opts Options) (*Repartitioned, error) {
	opts.Ctx = ctx
	return repartition(g, opts, nil)
}

// Repartition runs the full framework of §III-A: it normalizes the input,
// pre-computes the adjacent-pair variation field (and from it the
// min-adjacent-variation ladder) once, and then iterates extract → allocate
// → information-loss, climbing the ladder until the next step would push IFL
// beyond the threshold. The returned dataset is the coarsest one whose
// IFL ≤ θ (the identity partition, with IFL 0, if even the first merge
// overshoots).
//
// The rungs are visited one at a time by SearchLadder; with
// Options.Workers > 1 each rung's feature allocation and loss sweep are
// sharded across goroutines, and since no value depends on the sharding the
// result — Iterations included — is byte-identical to the Workers = 1 path.
func Repartition(g *grid.Grid, opts Options) (*Repartitioned, error) {
	if opts.Ctx == nil {
		opts.Ctx = context.Background()
	}
	return repartition(g, opts, nil)
}

// repartition is the shared driver behind Repartition and
// RepartitionWithReport. rec, when non-nil, collects the data a RunReport
// needs (and guarantees an active observer so per-phase timings exist).
// Every observation reads values the search computed anyway, so the result
// is byte-identical whether o and rec are nil or not.
func repartition(g *grid.Grid, opts Options, rec *runRecorder) (*Repartitioned, error) {
	if opts.Threshold < 0 || opts.Threshold > 1 {
		return nil, fmt.Errorf("%w: got %v", ErrThreshold, opts.Threshold)
	}
	if err := grid.ValidateAttrs(g.Attrs); err != nil {
		return nil, err
	}
	// opts.Ctx is non-nil on every path: Repartition and
	// RepartitionWithReport default it, RepartitionCtx requires it. Keeping
	// the context.Background() default out of this shared driver keeps the
	// handler-reachable path (RepartitionCtx) from ever minting a root
	// context that would detach a request from its deadline and trace.
	ctx := opts.Ctx
	if ctx.Err() != nil {
		return nil, canceledErr(ctx)
	}
	o := opts.Obs
	if rec != nil {
		if o == nil {
			o = obs.New()
		}
		rec.obs = o
		rec.start = time.Now()
	}
	workers := resolveWorkers(opts.Workers)
	o.Count("repart.runs", 1)
	o.SetGauge("repart.workers", float64(workers))

	// The run root span adopts any trace context the caller placed in ctx
	// (e.g. the server's request span), so a traced /view request yields one
	// connected tree down to the per-rung evaluations. With a nil observer
	// both calls are single branches and ctx is returned unchanged.
	ctx, spRun := o.StartSpanCtx(ctx, "repart.run", "schedule", scheduleName(opts.Schedule))
	defer spRun.End()

	norm, _ := g.Normalized()
	_, sp := o.StartSpanCtx(ctx, "varfield.build")
	field := BuildFieldParallel(norm, workers)
	sp.End()
	ladder := field.Ladder()
	o.SetGauge("repart.ladder_rungs", float64(ladder.Len()))
	if rec != nil {
		rec.field = field.Stats()
		rec.rungs = ladder.Len()
		rec.workers = workers
	}

	best := &Repartitioned{
		Source:          g,
		Partition:       Identity(g),
		MinAdjVariation: -1,
	}
	best.Features = AllocateFeaturesParallel(g, best.Partition, workers)
	spans := attrSpans(g) // constant across rungs: scan the grid once

	// pass evaluates one ladder rung and installs it as the new best when its
	// loss is within θ. SearchLadder only ever passes rungs coarser than every
	// rung passed before, so the last installed rung is the one the search
	// accepts.
	pass := func(i int) (bool, error) {
		if ctx.Err() != nil {
			return false, canceledErr(ctx)
		}
		// rung.eval joins the request trace; its sub-phases (rung.extract,
		// rung.allocate, rung.loss) stay histogram-only so the flight
		// recorder holds one event per rung, not four.
		_, spe := o.StartSpanCtx(ctx, "rung.eval")
		part := extractFieldObs(o, field, ladder.Rung(i))
		feats := allocateFeaturesObs(o, g, part, workers)
		loss := iflObs(o, g, part, feats, spans, workers)
		spe.End()
		ok := loss <= opts.Threshold
		o.Count("rung.evaluated", 1)
		rec.record(i, ladder.Rung(i), loss, len(part.Groups), ok)
		if ok {
			o.Count("rung.promoted", 1)
			best = &Repartitioned{
				Source:          g,
				Partition:       part,
				Features:        feats,
				IFL:             loss,
				MinAdjVariation: ladder.Rung(i),
			}
		}
		return ok, nil
	}
	iters, err := SearchLadder(ladder.Len(), opts.Schedule, pass)
	if err != nil {
		return nil, err
	}

	best.Iterations = iters
	o.SetGauge("repart.last_ifl", best.IFL)
	o.SetGauge("repart.last_groups", float64(len(best.Partition.Groups)))
	return best, nil
}

// SearchLadder climbs an n-rung variation ladder under schedule s, calling
// pass on each rung it visits, and returns the number of rungs evaluated.
// pass reports whether the rung's partition satisfies the caller's loss
// bound; a non-nil error (e.g. cancellation) stops the search and is
// returned as is.
//
// ScheduleExact visits 0, 1, 2, … up to and including the first failing
// rung. ScheduleGeometric probes lastGood+1, +2, +4, … (lastGood being the
// latest passing probe) until a probe fails or the ladder ends, then bisects
// the open interval (lastGood, firstBad). Either way every passing rung is
// coarser than all rungs passed before it, so the last rung pass accepted is
// the search's answer.
func SearchLadder(n int, s Schedule, pass func(rung int) (bool, error)) (evaluated int, err error) {
	try := func(i int) (bool, error) {
		evaluated++
		return pass(i)
	}
	switch s {
	case ScheduleExact:
		for i := 0; i < n; i++ {
			if ok, err := try(i); err != nil || !ok {
				return evaluated, err
			}
		}
	case ScheduleGeometric:
		// Exponential search for the frontier, then bisection.
		lastGood, firstBad := -1, n
		for step := 1; lastGood+step < n; step *= 2 {
			i := lastGood + step
			ok, err := try(i)
			if err != nil {
				return evaluated, err
			}
			if !ok {
				firstBad = i
				break
			}
			lastGood = i
		}
		for lo, hi := lastGood+1, firstBad-1; lo <= hi; {
			mid := (lo + hi) / 2
			ok, err := try(mid)
			if err != nil {
				return evaluated, err
			}
			if ok {
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
	default:
		return 0, fmt.Errorf("core: unknown schedule %d", s)
	}
	return evaluated, nil
}
