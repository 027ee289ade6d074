package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spatialrepart/internal/obs"
	"spatialrepart/internal/server"
	"spatialrepart/internal/stream"
)

// Span names. Each is recorded by the benchmark around its call into one
// package; layerOf maps it to the layer it times.
const (
	spanRequest     = "load.request"     // client: send to last body byte
	spanServer      = "server.handler"   // server.Server.Handler()
	spanCurrent     = "stream.current"   // server.Source.CurrentCtx
	spanCoordinator = "cluster.handler"  // cluster.Coordinator.Handler()
	spanBatch       = "batch.run"        // one pipeline run
	spanRead        = "grid.read"        // grid.ReadCSV
	spanRepartition = "core.repartition" // core.RepartitionWithReport
	spanReconstruct = "core.reconstruct" // Repartitioned.ReconstructGrid
	spanWrite       = "grid.write"       // Grid.WriteCSV
	spanAdd         = "stream.add"       // stream.Repartitioner.Add
)

var layerOf = map[string]string{
	spanRequest: "load", spanServer: "server", spanCurrent: "stream", spanCoordinator: "cluster",
	spanBatch: "batch", spanRead: "grid", spanRepartition: "core", spanReconstruct: "core",
	spanWrite: "grid", spanAdd: "stream",
}

// span is one recorded span. Times are nanoseconds on the recorder's
// monotonic clock.
type span struct {
	trace      obs.TraceID
	id, parent obs.SpanID
	name       string
	class      string // read class of the request ("" when not a read)
	start, end int64
	bytes      int64 // response bytes written (handler spans)
	status     int   // response status (handler spans)
}

func (s *span) dur() int64 { return s.end - s.start }

// recorder keeps the spans of one traced phase in memory until the phase
// ends. It is safe for concurrent use.
type recorder struct {
	base time.Time
	ids  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder(seed int64) *recorder {
	r := &recorder{base: time.Now()}
	r.ids.Store(uint64(seed)*0x9E3779B97F4A7C15 + 1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// next draws a SplitMix64 value: distinct, non-zero identifiers without a
// lock.
func (r *recorder) next() uint64 {
	z := r.ids.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

func (r *recorder) spanID() obs.SpanID {
	var id obs.SpanID
	v := r.next()
	for i := range id {
		id[i] = byte(v >> (8 * i))
	}
	return id
}

func (r *recorder) traceID() obs.TraceID {
	var id obs.TraceID
	a, b := r.next(), r.next()
	for i := 0; i < 8; i++ {
		id[i], id[8+i] = byte(a>>(8*i)), byte(b>>(8*i))
	}
	return id
}

func (r *recorder) add(s ...span) {
	r.mu.Lock()
	r.spans = append(r.spans, s...)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// child starts a span under parent (a zero parent starts a new trace) and
// returns its trace context and start time.
func (r *recorder) child(parent obs.TraceContext) (obs.TraceContext, int64) {
	tc := obs.TraceContext{TraceID: parent.TraceID, SpanID: r.spanID()}
	if tc.TraceID.IsZero() {
		tc.TraceID = r.traceID()
	}
	return tc, r.now()
}

// handler wraps one layer's HTTP handler: it records a span per request,
// parented on the inbound traceparent, and forwards its own span as the
// traceparent the wrapped handler adopts, so the layers below link into the
// same trace.
func (r *recorder) handler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := obs.ParseTraceparent(req.Header.Get("traceparent"))
		tc, start := r.child(parent)
		req = req.Clone(req.Context())
		req.Header.Set("traceparent", tc.Traceparent())
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, req)
		status := cw.status
		if status == 0 {
			status = http.StatusOK
		}
		r.add(span{trace: tc.TraceID, id: tc.SpanID, parent: parent.SpanID, name: name,
			start: start, end: r.now(), bytes: cw.n, status: status})
	})
}

// countingWriter records the status and the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// tracedSource wraps the stream behind a server, recording a stream.current
// span around every CurrentCtx.
type tracedSource struct {
	server.Source
	rec *recorder
}

func (s tracedSource) CurrentCtx(ctx context.Context) (stream.View, error) {
	parent, _ := obs.TraceFromContext(ctx)
	tc, start := s.rec.child(parent)
	v, err := s.Source.CurrentCtx(obs.ContextWithTrace(ctx, tc))
	s.rec.add(span{trace: tc.TraceID, id: tc.SpanID, parent: parent.SpanID, name: spanCurrent, start: start, end: s.rec.now()})
	return v, err
}

// op is one traced operation: its root span and the self time of each layer
// along the operation's critical path.
type op struct {
	root     *span
	e2e      int64            // root duration
	self     map[string]int64 // layer → self time on the critical path
	spans    []*span          // every span of the operation's trace
	residual int64            // root self time: end-to-end time no layer span covers
}

// operations groups spans by trace and walks each trace's critical path. A
// span's self time is its duration minus the part its critical children
// cover; the critical children are found by walking back from the span's end,
// each time taking the child that ended last before the current point, so
// sequential children all count and, of parallel children, the slowest one.
// The self times along the path and the residual add up to the root's
// duration exactly.
func operations(spans []span, rootName string) []op {
	byTrace := map[obs.TraceID][]*span{}
	for i := range spans {
		byTrace[spans[i].trace] = append(byTrace[spans[i].trace], &spans[i])
	}
	var ops []op
	for _, ss := range byTrace {
		var root *span
		known := map[obs.SpanID]bool{}
		for _, s := range ss {
			known[s.id] = true
			if s.name == rootName && s.parent.IsZero() {
				root = s
			}
		}
		children := map[obs.SpanID][]*span{}
		for _, s := range ss {
			parent := s.parent
			if !parent.IsZero() && !known[parent] {
				parent = enclosing(ss, s)
			}
			if !parent.IsZero() {
				children[parent] = append(children[parent], s)
			}
		}
		if root == nil {
			continue
		}
		for _, s := range ss {
			s.class = root.class
		}
		o := op{root: root, e2e: root.dur(), self: map[string]int64{}, spans: ss}
		var walk func(s *span) int64
		walk = func(s *span) int64 {
			crit := critical(children[s.id], s.end)
			covered := int64(0)
			for _, c := range crit {
				covered += c.dur()
				o.self[layerOf[c.name]] += walk(c)
			}
			return s.dur() - covered
		}
		o.residual = walk(root)
		ops = append(ops, o)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].root.start < ops[j].root.start })
	return ops
}

// enclosing returns the latest-starting span of the trace that contains s in
// time. It parents a span whose recorded parent is a span the program made
// itself (the coordinator forwards its own fetch span as the traceparent when
// it has an observer), so the benchmark's spans still form one tree.
func enclosing(ss []*span, s *span) obs.SpanID {
	var best *span
	for _, c := range ss {
		if c != s && c.start <= s.start && c.end >= s.end && (best == nil || c.start > best.start) {
			best = c
		}
	}
	if best == nil {
		return obs.SpanID{}
	}
	return best.id
}

// critical returns the children on the critical path back from end.
func critical(kids []*span, end int64) []*span {
	sorted := append([]*span(nil), kids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].end > sorted[j].end })
	var path []*span
	cursor := end
	for _, k := range sorted {
		if k.end <= cursor {
			path = append(path, k)
			cursor = k.start
		}
	}
	return path
}

// writeFile writes the recorded spans as Chrome trace-event JSON, the format
// the program's own /debug/traces endpoint serves.
func (r *recorder) writeFile(path string) error {
	spans := r.snapshot()
	events := make([]obs.SpanEvent, 0, len(spans))
	base := r.base.UnixNano()
	for _, s := range spans {
		attrs := []string{}
		if s.class != "" {
			attrs = append(attrs, "class", s.class)
		}
		if s.status != 0 {
			attrs = append(attrs, "status", strconv.Itoa(s.status), "bytes", strconv.FormatInt(s.bytes, 10))
		}
		events = append(events, obs.SpanEvent{Trace: s.trace, Span: s.id, Parent: s.parent, Name: s.name,
			Start: base + s.start, DurNS: s.dur(), Attrs: attrs})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTraceEvents(f, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}
