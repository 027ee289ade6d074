package obs

import (
	"context"
	"math"
	"testing"
)

// The disabled (nil-observer) path is the one every hot loop pays when
// instrumentation is off; these benchmarks pin it to roughly one branch.
// disabledObs is a package-level nil so the compiler cannot prove nilness at
// the call site and fold the calls away entirely.
var disabledObs *Observer

func BenchmarkDisabledCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		disabledObs.Count("rung.evaluated", 1)
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sp := disabledObs.StartSpan("rung.eval")
		sp.End()
	}
}

func BenchmarkDisabledGauge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		disabledObs.SetGauge("workers", 4)
	}
}

func BenchmarkEnabledCount(b *testing.B) {
	o := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Count("rung.evaluated", 1)
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	o := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := o.StartSpan("rung.eval")
		sp.End()
	}
}

// spanSink keeps the labeled span (and its folded name) live so the compiler
// cannot elide the fold.
var spanSink Span

// BenchmarkStartSpanLabels pins the labeled-span start path: the label fold
// must cost one pre-sized allocation, not one per label.
func BenchmarkStartSpanLabels(b *testing.B) {
	o := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spanSink = o.StartSpan("server.http", "/view", "200")
	}
}

// TestStartSpanLabelsSingleAlloc is the satellite's acceptance check: the
// enabled labeled StartSpan path performs exactly one allocation (the folded
// name), however many labels are folded.
func TestStartSpanLabelsSingleAlloc(t *testing.T) {
	o := New()
	for _, labels := range [][]string{
		{"a"},
		{"/view", "200"},
		{"/view", "200", "extra", "labels"},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			spanSink = o.StartSpan("server.http", labels...)
		})
		if allocs > 1 {
			t.Errorf("StartSpan with %d labels: %.1f allocs/op, want <= 1", len(labels), allocs)
		}
	}
}

func BenchmarkDisabledSpanCtx(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, sp := disabledObs.StartSpanCtx(ctx, "server.request")
		sp.End()
	}
}

func BenchmarkEnabledSpanCtx(b *testing.B) {
	o := New()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := o.StartSpanCtx(ctx, "server.request")
		sp.End()
	}
}

// TestDisabledOverheadBudget is the "<2ns/op" acceptance check: the
// disabled Count path must cost under 2ns per call. Skipped under the race
// detector (which instruments every call) and -short; the threshold leaves
// ~4× headroom over the measured ~0.5ns branch-and-return. It judges the
// fastest of three runs, so other work sharing the cores during one run
// does not fail it.
func TestDisabledOverheadBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments calls; timing not meaningful")
	}
	if testing.Short() {
		t.Skip("timing check skipped in -short mode")
	}
	ns := math.Inf(1)
	for range 3 {
		res := testing.Benchmark(BenchmarkDisabledCount)
		run := float64(res.T.Nanoseconds()) / float64(res.N)
		t.Logf("disabled Count: %.3f ns/op over %d iterations", run, res.N)
		ns = min(ns, run)
	}
	if ns >= 2 {
		t.Errorf("disabled-path overhead %.3f ns/op in the fastest of three runs, want < 2", ns)
	}
}
