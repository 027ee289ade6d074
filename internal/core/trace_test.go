package core

import (
	"context"
	"math/rand"
	"testing"

	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
)

// TestRepartitionTracedByteIdentical is the tracing acceptance property:
// running with request-scoped tracing active — a trace context in ctx, a
// seeded observer recording spans into the flight recorder — returns a
// dataset byte-identical to the bare uninstrumented run, for both schedules
// and for sequential and sharded worker counts.
func TestRepartitionTracedByteIdentical(t *testing.T) {
	remote, ok := obs.ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("failed to parse fixture traceparent")
	}
	check := func(g *grid.Grid, sched Schedule, th float64, seed int64) {
		t.Helper()
		bare, err := Repartition(g, Options{Threshold: th, Schedule: sched, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			o := obs.NewSeeded(seed)
			ctx := obs.ContextWithTrace(context.Background(), remote)
			traced, err := RepartitionCtx(ctx, g, Options{Threshold: th, Schedule: sched, Workers: w, Obs: o})
			if err != nil {
				t.Fatal(err)
			}
			equalRepartitioned(t, "traced "+schedLabel(sched, th, w), bare, traced)
		}
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 6; trial++ {
		g := randomMultiGrid(rng)
		for _, sched := range []Schedule{ScheduleExact, ScheduleGeometric} {
			for _, th := range []float64{0.05, 0.3} {
				check(g, sched, th, int64(trial))
			}
		}
	}
	g := fanOutGrids()[0] // one size is enough; WorkersByteIdentical covers both
	for _, tc := range fanOutCases {
		check(g, tc.sched, tc.th, 0)
	}
}

// TestRepartitionTraceTree pins the span tree a traced run deposits in the
// flight recorder: one repart.run root adopted under the caller's trace, one
// varfield.build child, and one rung.eval child per evaluation, all in the
// same trace.
func TestRepartitionTraceTree(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := randomMultiGrid(rng)
	o := obs.NewSeeded(1)
	ctx, root := o.StartSpanCtx(context.Background(), "test.root")
	rp, err := RepartitionCtx(ctx, g, Options{Threshold: 0.2, Workers: 4, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	rootTC, _ := obs.TraceFromContext(ctx)
	evs := o.Flight().Snapshot()
	var run *obs.SpanEvent
	builds, evals := 0, 0
	for i := range evs {
		e := &evs[i]
		if e.Trace != rootTC.TraceID {
			t.Fatalf("span %s in trace %s, want %s", e.Name, e.Trace, rootTC.TraceID)
		}
		switch e.Name {
		case "repart.run":
			run = e
		case "varfield.build":
			builds++
		case "rung.eval":
			evals++
		}
	}
	if run == nil {
		t.Fatal("no repart.run span recorded")
	}
	if run.Parent != rootTC.SpanID {
		t.Fatalf("repart.run parent %s, want the caller span %s", run.Parent, rootTC.SpanID)
	}
	if builds != 1 {
		t.Fatalf("%d varfield.build spans, want 1", builds)
	}
	if evals == 0 || int64(evals) != o.Registry().Counter("rung.evaluated").Value() {
		t.Fatalf("%d rung.eval spans, want one per evaluation (%d)",
			evals, o.Registry().Counter("rung.evaluated").Value())
	}
	for i := range evs {
		e := &evs[i]
		if (e.Name == "varfield.build" || e.Name == "rung.eval") && e.Parent != run.Span {
			t.Fatalf("%s parent %s, want repart.run %s", e.Name, e.Parent, run.Span)
		}
	}
	// Sub-phase spans stay histogram-only: extract/allocate/loss are timed
	// but never deposited in the recorder.
	if c := o.Registry().Histogram("span.rung.extract", nil).Count(); c == 0 && rp.Iterations > 0 {
		t.Error("rung.extract sub-phase not timed")
	}
	for _, e := range evs {
		switch e.Name {
		case "rung.extract", "rung.allocate", "rung.loss":
			t.Fatalf("sub-phase span %s leaked into the flight recorder", e.Name)
		}
	}
}

// TestPhaseStatsQuantiles pins that RunReport phase summaries carry ordered,
// range-bounded percentile estimates.
func TestPhaseStatsQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomMultiGrid(rng)
	_, rep, err := RepartitionWithReport(g, Options{Threshold: 0.3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ps, ok := rep.Phases["rung.eval"]
	if !ok {
		t.Fatal("report lacks rung.eval phase stats")
	}
	if ps.P50NS < ps.MinNS || ps.P50NS > ps.P95NS || ps.P95NS > ps.P99NS || ps.P99NS > ps.MaxNS {
		t.Fatalf("percentiles out of order: min=%d p50=%d p95=%d p99=%d max=%d",
			ps.MinNS, ps.P50NS, ps.P95NS, ps.P99NS, ps.MaxNS)
	}
}
