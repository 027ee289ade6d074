// Package obs is the repository's stdlib-only instrumentation layer
// (DESIGN.md §3.14, §3.18): a metrics registry (sharded counters, gauges,
// fixed-bucket histograms), span-style tracing that records per-phase
// timings into that registry, request-scoped tracing (W3C trace context,
// parent/child span trees, a bounded flight recorder exporting Chrome
// trace-event JSON), a runtime telemetry sampler, and an optional HTTP
// endpoint exposing expvar snapshots, traces, and net/http/pprof.
//
// Everything hangs off an *Observer, and a nil *Observer is the disabled
// state: every method nil-checks and returns immediately, so instrumented
// code passes observers around unconditionally and disabled instrumentation
// costs roughly one predictable branch per call site (see
// BenchmarkDisabledCount). Instrumentation never influences results — it
// only reads values the instrumented code already computed.
package obs

import (
	"strings"
	"time"
)

// Observer is a handle to one registry, one flight recorder, and the span
// ID source. The zero value is not useful; use New (or NewSeeded for a
// reproducible span-ID sequence), or keep a nil *Observer to disable
// instrumentation.
type Observer struct {
	reg *Registry
	fr  *FlightRecorder
	ids idGen
}

// New returns an enabled observer with a fresh registry and a
// default-capacity flight recorder. Trace/span IDs are seeded from the
// clock; tests that assert on IDs use NewSeeded.
func New() *Observer {
	return NewSeeded(time.Now().UnixNano())
}

// NewSeeded is New with the span/trace ID generator seeded explicitly, so a
// single-goroutine test sees a reproducible ID sequence. The seed influences
// identifiers only — never any recorded value or any instrumented result.
func NewSeeded(seed int64) *Observer {
	o := &Observer{reg: NewRegistry(), fr: NewFlightRecorder(0)}
	o.ids.state.Store(uint64(seed))
	return o
}

// Enabled reports whether the observer records anything.
func (o *Observer) Enabled() bool { return o != nil }

// Registry returns the observer's registry (nil for a disabled observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Flight returns the observer's flight recorder (nil for a disabled
// observer), the bounded ring the context-span API records completed spans
// into.
func (o *Observer) Flight() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.fr
}

// Count adds delta to the named counter. The nil fast path is kept small
// enough to inline (the enabled path lives in a separate method so the
// branch fits the compiler's budget), so a disabled call compiles to a
// branch at the call site.
func (o *Observer) Count(name string, delta int64) {
	if o == nil {
		return
	}
	o.count(name, delta)
}

//go:noinline
func (o *Observer) count(name string, delta int64) {
	o.reg.Counter(name).Add(delta)
}

// SetGauge stores v in the named gauge.
func (o *Observer) SetGauge(name string, v float64) {
	if o == nil {
		return
	}
	o.setGauge(name, v)
}

//go:noinline
func (o *Observer) setGauge(name string, v float64) {
	o.reg.Gauge(name).Set(v)
}

// Observe records v into the named histogram (default duration buckets on
// first use; register the histogram up front for custom bounds).
func (o *Observer) Observe(name string, v float64) {
	if o == nil {
		return
	}
	o.observe(name, v)
}

//go:noinline
func (o *Observer) observe(name string, v float64) {
	o.reg.Histogram(name, nil).Observe(v)
}

// Span is one in-flight timed phase. Spans are values — starting one
// allocates nothing on the plain StartSpan path — and End is safe on the
// zero Span, which is what a disabled observer hands out. Spans started via
// StartSpanCtx additionally carry trace identifiers; their End deposits the
// completed span in the observer's flight recorder.
type Span struct {
	o     *Observer
	name  string
	start time.Time

	// Request-scoped fields, set only by StartSpanCtx: this span's position
	// in the trace tree, its parent, and its start-time attributes.
	tc     TraceContext
	parent SpanID
	attrs  []string
}

// StartSpan begins a timed phase. Optional labels are folded into the metric
// name ("name:l1:l2"), so each label combination gets its own histogram —
// keep label cardinality small. End records the elapsed nanoseconds into the
// histogram "span.<name>".
func (o *Observer) StartSpan(name string, labels ...string) Span {
	if o == nil {
		return Span{}
	}
	return o.startSpan(name, labels)
}

//go:noinline
func (o *Observer) startSpan(name string, labels []string) Span {
	if len(labels) > 0 {
		name = FoldLabels(name, labels)
	}
	return Span{o: o, name: name, start: time.Now()}
}

// FoldLabels builds the folded metric key "name:l1:l2:…" with one pre-sized
// allocation (BenchmarkStartSpanLabels pins it), instead of one allocation
// per label.
func FoldLabels(name string, labels []string) string {
	n := len(name)
	for _, l := range labels {
		n += 1 + len(l)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(':')
		b.WriteString(l)
	}
	return b.String()
}

// Traced reports whether ending this span will deposit a flight-recorder
// event — i.e. it came from StartSpanCtx on an enabled observer. Callers use
// it to skip building End attributes (strconv formatting and the like) when
// nobody would record them; on the zero Span it is the usual single branch.
func (s Span) Traced() bool {
	return s.o != nil && s.tc.Valid()
}

// End records the span's duration; a span started by StartSpanCtx is also
// deposited in the flight recorder, with the optional attrs (alternating
// key/value pairs) appended to its start-time attributes. No-op on the zero
// Span.
func (s Span) End(attrs ...string) {
	if s.o == nil {
		return
	}
	s.end(attrs)
}

//go:noinline
func (s Span) end(endAttrs []string) {
	d := time.Since(s.start)
	s.o.reg.Histogram("span."+s.name, nil).Observe(float64(d.Nanoseconds()))
	if !s.tc.Valid() {
		return
	}
	attrs := s.attrs
	if len(endAttrs) > 0 {
		merged := make([]string, 0, len(s.attrs)+len(endAttrs))
		merged = append(merged, s.attrs...)
		attrs = append(merged, endAttrs...)
	}
	s.o.fr.Record(SpanEvent{
		Trace:  s.tc.TraceID,
		Span:   s.tc.SpanID,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start.UnixNano(),
		DurNS:  d.Nanoseconds(),
		Attrs:  attrs,
	})
}

// SpanPrefix is the registry-name prefix under which span histograms live;
// report builders use it to find per-phase timings.
const SpanPrefix = "span."
