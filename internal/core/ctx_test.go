package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
)

// ctxGrid builds a grid with enough distinct variations that the ladder has
// many rungs, so cancellation can land mid-climb.
func ctxGrid(rows, cols int) *grid.Grid {
	g := grid.New(rows, cols, []grid.Attribute{{Name: "v", Agg: grid.Average}})
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.Set(r, c, 0, float64(r*cols+c)*1.37)
		}
	}
	return g
}

// countdownCtx reports itself canceled after Err has been called n times —
// a deterministic stand-in for "cancel mid-run" that does not depend on
// timing. Each rung boundary consults Err at least once, so the run is
// guaranteed to abort partway through the climb.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestRepartitionCtxPreCanceledDoesNoWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := obs.New()
	for _, sched := range []Schedule{ScheduleExact, ScheduleGeometric} {
		for _, workers := range []int{1, 4} {
			_, err := RepartitionCtx(ctx, ctxGrid(8, 8), Options{
				Threshold: 0.5, Schedule: sched, Workers: workers, Obs: o,
			})
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("sched %v workers %d: err = %v, want ErrCanceled", sched, workers, err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("sched %v workers %d: err = %v does not wrap context.Canceled", sched, workers, err)
			}
		}
	}
	// A pre-canceled context must abort before any rung evaluation runs.
	if n := o.Registry().Counter("rung.evaluated").Value(); n != 0 {
		t.Fatalf("pre-canceled runs evaluated %d rungs, want 0", n)
	}
}

func TestRepartitionCtxCancelMidClimb(t *testing.T) {
	g := ctxGrid(40, 40) // taller than two IFL blocks: the parallel cases shard
	for _, tc := range []struct {
		name    string
		sched   Schedule
		workers int
	}{
		{"exact/sequential", ScheduleExact, 1},
		{"exact/parallel", ScheduleExact, 4},
		{"geometric/sequential", ScheduleGeometric, 1},
		{"geometric/parallel", ScheduleGeometric, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Let a handful of Err checks pass, then cancel: the run is
			// mid-climb (the ladder has 32 rungs at this size).
			ctx := newCountdownCtx(5)
			_, err := RepartitionCtx(ctx, g, Options{
				Threshold: 1, Schedule: tc.sched, Workers: tc.workers,
			})
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
			}
		})
	}
}

func TestRepartitionCtxNeverCanceledMatchesRepartition(t *testing.T) {
	g := ctxGrid(40, 40)
	for _, sched := range []Schedule{ScheduleExact, ScheduleGeometric} {
		want, err := Repartition(g, Options{Threshold: 0.3, Schedule: sched, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			got, err := RepartitionCtx(context.Background(), g, Options{
				Threshold: 0.3, Schedule: sched, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.IFL != want.IFL || got.Iterations != want.Iterations ||
				got.MinAdjVariation != want.MinAdjVariation ||
				len(got.Partition.Groups) != len(want.Partition.Groups) {
				t.Fatalf("sched %v workers %d: ctx run diverged: got %+v want %+v",
					sched, workers, got, want)
			}
		}
	}
}

func TestRepartitionWithReportObservesCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := RepartitionWithReport(ctxGrid(6, 6), Options{Threshold: 0.2, Ctx: ctx})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("RepartitionWithReport err = %v, want ErrCanceled", err)
	}
}
