package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
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
	// ScheduleGeometric brackets the whole ladder and narrows the bracket
	// with an ITP search steered by the measured IFL curve (SearchLadder),
	// until it holds a passing rung whose next rung fails (or the last
	// rung). At most ⌈log₂(#variations+1)⌉ + 1 iterations; returns the same
	// partition as ScheduleExact whenever IFL is monotone in the rung. Where
	// it is not, the accepted rung may be coarser than exact's, still with
	// IFL ≤ θ.
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
// Within a run, a group whose rectangle is the last one evaluated at its
// top-left cell reuses that rectangle's features and loss sum instead of
// recomputing them (DESIGN.md §3.22).
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

	norm, ranges := g.Normalized()
	_, sp := o.StartSpanCtx(ctx, "varfield.build")
	field := BuildFieldParallel(norm, workers)
	sp.End()
	// Histogram-only, like the rung sub-phases: the flight recorder keeps
	// the events per run it had.
	sp = o.StartSpan("ladder.build")
	ladder := field.Ladder()
	sp.End()
	o.SetGauge("repart.ladder_rungs", float64(ladder.Len()))
	if rec != nil {
		rec.field = field.Stats()
		rec.rungs = ladder.Len()
		rec.workers = workers
	}

	memo := newRungMemo(g, ranges, workers)
	var best *rungBuffers // the accepted rung, nil until a rung passes
	next := &rungBuffers{}
	// pass evaluates one ladder rung into next and, when its loss is within
	// θ, makes it the new best and recycles the superseded best's buffers as
	// the next scratch rung. SearchLadder only ever passes rungs coarser than
	// every rung passed before, so the last installed rung is the one the
	// search accepts.
	pass := func(i int) (bool, float64, error) {
		if ctx.Err() != nil {
			return false, 0, canceledErr(ctx)
		}
		// rung.eval joins the request trace; its sub-phases (rung.extract,
		// rung.allocate, rung.loss) stay histogram-only so the flight
		// recorder holds one event per rung, not four.
		_, spe := o.StartSpanCtx(ctx, "rung.eval")
		sp := o.StartSpan("rung.extract")
		next.groups = field.extractGroups(next.groups[:0], memo.visited, ladder.Rung(i))
		sp.End()
		sp = o.StartSpan("rung.allocate")
		hits := memo.allocate(next.groups)
		sp.End()
		sp = o.StartSpan("rung.loss")
		loss := memo.ifl()
		sp.End()
		spe.End()
		groups := len(next.groups)
		ok := loss <= opts.Threshold
		o.Count("rung.evaluated", 1)
		o.Count("extract.calls", 1)
		o.Count("extract.groups", int64(groups))
		o.Count("memo.hits", int64(hits))
		rec.record(i, ladder.Rung(i), loss, groups, hits, ok)
		if ok {
			o.Count("rung.promoted", 1)
			next.ifl, next.minAdjVariation = loss, ladder.Rung(i)
			best, next = next, best
			if next == nil {
				next = &rungBuffers{}
			}
		}
		return ok, loss, nil
	}
	iters, err := SearchLadder(ladder.Len(), opts.Schedule, opts.Threshold, pass)
	if err != nil {
		return nil, err
	}

	var rp *Repartitioned
	if best != nil {
		rp = memo.result(best)
	} else {
		// No rung passed: the identity partition, IFL 0.
		part := Identity(g)
		rp = &Repartitioned{
			Source:          g,
			Partition:       part,
			Features:        AllocateFeatures(g, part),
			MinAdjVariation: -1,
		}
	}
	rp.Iterations = iters
	o.SetGauge("repart.last_ifl", rp.IFL)
	o.SetGauge("repart.last_groups", float64(len(rp.Partition.Groups)))
	return rp, nil
}

// rungBuffers is one evaluated rung: its groups and, once it passes, its
// loss and variation threshold. The search keeps two — the accepted rung and
// a scratch rung — and extracts each new rung into the scratch one, so the
// group slices are allocated only when a rung outgrows them. Features live
// in the memo only; result gathers the accepted rung's.
type rungBuffers struct {
	groups          []CellGroup
	ifl             float64
	minAdjVariation float64
}

// rungMemo evaluates the rungs of one run (DESIGN.md §3.22). For every
// anchor (top-left) cell it keeps the last rectangle evaluated there with
// that rectangle's Algorithm 2 features and Eq. 3 loss sum. Both depend only
// on the rectangle, so a group whose extents match its anchor's slot costs
// nothing to allocate, and only new rectangles read their cells. Within
// one partition each anchor belongs to one group, so the sharded passes
// never write the same slot and the hit count does not depend on the
// sharding. The arrays are flat and pointer-free, allocated once per run.
type rungMemo struct {
	g       *grid.Grid
	spans   []float64 // attribute range spans, for Eq. 3
	valid   int       // valid cells of g
	workers int

	// rEnd and cEnd hold each slot's rectangle extents, indexed by anchor
	// cell; rEnd is -1 while a slot is empty. A slot's extents, features
	// and loss sum always describe the same rectangle.
	rEnd, cEnd []int32
	feat       []float64 // cells × attrs features
	loss       []float64 // per-cell loss sums
	visited    []bool    // Algorithm 1's visited cells, one per cell

	// The rung being evaluated and the per-pass scratch the sharded passes
	// write: one hit count and one Algorithm 2 scratch slice per allocation
	// shard, one partial per loss chunk.
	groups    []CellGroup
	hits      []int
	scratch   [][]float64
	partials  []float64
	allocPass func(shard, lo, hi int)
	lossPass  func(shard, lo, hi int)
}

// newRungMemo returns the memo of a run over g, whose attribute ranges are
// given (Normalized returns them), so their Eq. 3 spans need no new scan.
func newRungMemo(g *grid.Grid, ranges []grid.AttrRange, workers int) *rungMemo {
	cells := g.NumCells()
	m := &rungMemo{
		g:        g,
		spans:    rangeSpans(ranges),
		valid:    g.ValidCount(),
		workers:  workers,
		rEnd:     make([]int32, cells),
		cEnd:     make([]int32, cells),
		feat:     make([]float64, cells*g.NumAttrs()),
		loss:     make([]float64, cells),
		visited:  make([]bool, cells),
		hits:     make([]int, 16*workers),
		scratch:  make([][]float64, 16*workers),
		partials: make([]float64, 0, lossChunks(cells)),
	}
	for i := range m.rEnd {
		m.rEnd[i] = -1
	}
	// Bound once, so evaluating a rung allocates nothing.
	m.allocPass, m.lossPass = m.allocRange, m.lossRange
	return m
}

// holds reports whether anchor a's slot holds group cg's rectangle.
func (m *rungMemo) holds(a int, cg *CellGroup) bool {
	return int(m.rEnd[a]) == cg.REnd && int(m.cEnd[a]) == cg.CEnd
}

// allocate makes the memo hold every group of a rung: for each group whose
// rectangle its anchor's slot does not hold, it runs Algorithm 2 into the
// slot and stores the group's loss sum while the cells are in cache. It
// returns the number of groups the memo already held. Group sizes vary
// widely, so the groups are cut into 16 ranges per worker and a worker that
// finishes early takes the next range.
func (m *rungMemo) allocate(groups []CellGroup) int {
	m.groups = groups
	clear(m.hits)
	workers := m.workers
	if len(groups) < 2*minParallelGroups {
		workers = 1
	}
	parallelRanges(len(groups), 16*m.workers, workers, m.allocPass)
	hits := 0
	for _, h := range m.hits {
		hits += h
	}
	return hits
}

// allocRange is allocate's shard: groups [lo, hi) of the current rung.
func (m *rungMemo) allocRange(shard, lo, hi int) {
	p, cols := m.g.NumAttrs(), m.g.Cols
	vals := m.scratch[shard]
	hits := 0
	for gi := lo; gi < hi; gi++ {
		cg := &m.groups[gi]
		a := cg.RBeg*cols + cg.CBeg
		if m.holds(a, cg) {
			hits++
			continue
		}
		slot := m.feat[a*p : a*p+p]
		if !cg.Null {
			vals = allocateGroup(m.g, cg, slot, vals, false)
		}
		m.loss[a] = groupLoss(m.g, cg, slot, m.spans)
		m.rEnd[a], m.cEnd[a] = int32(cg.REnd), int32(cg.CEnd)
	}
	m.scratch[shard] = vals
	m.hits[shard] = hits
}

// ifl returns the information loss of the rung allocate last filled: the
// one chunked IFL reduction over the loss sums the memo holds.
func (m *rungMemo) ifl() float64 {
	m.partials = m.partials[:lossChunks(len(m.groups))]
	parallelRanges(len(m.partials), 16*m.workers, m.workers, m.lossPass)
	return meanLoss(m.partials, m.valid, m.g.NumAttrs())
}

// lossRange is ifl's shard: loss chunks [lo, hi) of the current rung.
func (m *rungMemo) lossRange(_, lo, hi int) {
	sumChunks(m.partials, lo, hi, len(m.groups), m.lossOf)
}

// lossOf returns the stored loss sum of group gi of the current rung.
func (m *rungMemo) lossOf(gi int) float64 {
	cg := &m.groups[gi]
	return m.loss[cg.RBeg*m.g.Cols+cg.CBeg]
}

// result returns the accepted rung b as a Repartitioned that owns
// exact-size buffers: no spare capacity and nothing shared with the memo,
// whose memory is dropped when the run returns. CellToGroup is written here,
// once per run. A group's features are copied from its anchor's slot when
// the slot still holds its rectangle; a later rung may have rewritten the
// slot, and then the same Algorithm 2 recomputes them, bit for bit.
func (m *rungMemo) result(b *rungBuffers) *Repartitioned {
	g, p := m.g, m.g.NumAttrs()
	part := &Partition{Rows: g.Rows, Cols: g.Cols, Groups: make([]CellGroup, len(b.groups))}
	copy(part.Groups, b.groups)
	part.indexCells()
	valid := 0
	for _, cg := range part.Groups {
		if !cg.Null {
			valid++
		}
	}
	backing := make([]float64, valid*p)
	feats := make([][]float64, len(part.Groups))
	var vals []float64
	for gi := range part.Groups {
		cg := &part.Groups[gi]
		if cg.Null {
			continue
		}
		fv := backing[:p:p]
		backing = backing[p:]
		if a := cg.RBeg*g.Cols + cg.CBeg; m.holds(a, cg) {
			copy(fv, m.feat[a*p:])
		} else {
			vals = allocateGroup(g, cg, fv, vals, false)
		}
		feats[gi] = fv
	}
	return &Repartitioned{
		Source:          g,
		Partition:       part,
		Features:        feats,
		IFL:             b.ifl,
		MinAdjVariation: b.minAdjVariation,
	}
}

// SearchLadder searches an n-rung variation ladder under schedule s, calling
// pass on each rung it visits, and returns the number of rungs evaluated.
// pass reports whether the rung's partition satisfies the caller's loss
// bound, together with the loss it measured; a non-nil error (e.g.
// cancellation) stops the search and is returned as is. The verdict alone
// decides pass or fail. The loss, compared against bound, only steers which
// rung ScheduleGeometric probes next: a wrong, NaN or non-increasing loss
// can cost evaluations but never changes the contract below.
//
// ScheduleExact visits 0, 1, 2, … up to and including the first failing
// rung. ScheduleGeometric brackets the whole ladder: it keeps an open
// interval (lo, hi) whose lo passed (rung −1 is the identity partition,
// loss 0) and whose hi failed (rung n is a virtual failure), and probes a
// rung strictly inside it until the two are adjacent. While hi has no
// finite measured loss the probe is the midpoint; then each probe is an ITP
// step (interpolate–truncate–project; Oliveira & Takahashi, ACM TOMS 2021)
// on loss − bound in rung-rank space, which follows the measured loss curve
// yet never takes more than ⌈log₂(n+1)⌉ + 1 evaluations.
//
// Either way every passing rung is coarser than all rungs passed before it,
// so the last rung pass accepted (or −1, the identity, if none passed) is
// the search's answer r, and either r = n − 1 or rung r + 1 failed. The
// search starts from the same bracket every time, so its answer depends
// only on the ladder and pass, never on an earlier search.
func SearchLadder(n int, s Schedule, bound float64, pass func(rung int) (ok bool, loss float64, err error)) (evaluated int, err error) {
	switch s {
	case ScheduleExact:
		for i := 0; i < n; i++ {
			evaluated++
			if ok, _, err := pass(i); err != nil || !ok {
				return evaluated, err
			}
		}
	case ScheduleGeometric:
		// lo passed and hi failed; flo and fhi are loss − bound there.
		lo, hi, flo, fhi := -1, n, -bound, math.NaN()
		for hi-lo > 1 {
			i := itpProbe(n, evaluated, lo, hi, flo, fhi)
			evaluated++
			ok, loss, err := pass(i)
			if err != nil {
				return evaluated, err
			}
			if ok {
				lo, flo = i, loss-bound
			} else {
				hi, fhi = i, loss-bound
			}
		}
	default:
		return 0, fmt.Errorf("core: unknown schedule %d", s)
	}
	return evaluated, nil
}

// itpProbe returns the rung ScheduleGeometric evaluates next in an n-rung
// ladder after j evaluations, given the open bracket (lo, hi), hi − lo ≥ 2,
// and loss − bound at its ends (NaN where nothing was measured). Without a
// finite value at both ends it bisects. Otherwise it takes an ITP step with
// tolerance ε = ½ (the search ends on adjacent rungs), κ₁ = 0.2/(n+1),
// κ₂ = 2 and n₀ = 1 spare step over bisection's n½ = ⌈log₂(n+1)⌉. Before
// flooring, the probe lies within 2^(n½+n₀−j−1) − (hi−lo)/2 of the
// midpoint, so after j + 1 evaluations the bracket is at most
// 2^(n½+n₀−j−1) rungs wide whatever the losses were, and the search ends
// within n½ + n₀ evaluations; flooring cannot widen the bracket past that
// integer, and neither can the clamp into (lo, hi).
func itpProbe(n, j, lo, hi int, flo, fhi float64) int {
	if !finite(flo) || !finite(fhi) || flo == fhi { //spatialvet:ignore floateq guards the chord's division by the exact difference flo-fhi; any other pair is safe to divide by
		return lo + (hi-lo)/2
	}
	a, b := float64(lo), float64(hi)
	mid := (a + b) / 2
	// Interpolate: where the chord through the two ends crosses zero
	// (never NaN for finite, distinct ends; ±Inf is projected below).
	xf := a + (b-a)*flo/(flo-fhi)
	// Truncate: move κ₁(b−a)^κ₂ from the chord's root toward the midpoint,
	// or to the midpoint if that is nearer.
	sigma := 1.0
	if xf > mid {
		sigma = -1
	}
	x := mid
	if delta := 0.2 / float64(n+1) * (b - a) * (b - a); delta <= math.Abs(mid-xf) {
		x = xf + sigma*delta
	}
	// Project: stay within r of the midpoint.
	nMax := bits.Len(uint(n)) + 1 // n½ + n₀; n½ = ⌈log₂(n+1)⌉ = bit length of n
	if r := math.Ldexp(0.5, nMax-j) - (b-a)/2; math.Abs(x-mid) > r {
		x = mid - sigma*r
	}
	return min(max(int(math.Floor(x)), lo+1), hi-1)
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
