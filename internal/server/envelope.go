package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"spatialrepart/internal/fault"
	"spatialrepart/internal/obs"
)

// HandlerFunc is a handler mounted on an Envelope: it returns an error from
// the taxonomy (or any error, mapped to 500) instead of writing statuses
// itself.
type HandlerFunc func(w http.ResponseWriter, r *http.Request) error

// The request envelope's limits. Every front end runs these values; DESIGN.md
// §3.17 tabulates what each one bounds.
const (
	// maxInFlight bounds concurrently executing query requests.
	maxInFlight = 64
	// maxQueue bounds requests waiting for an in-flight slot.
	maxQueue = 16
	// queueWait bounds how long a queued request waits for a slot before it
	// is shed; the request deadline clips it too.
	queueWait = 100 * time.Millisecond
	// requestTimeout is the per-request deadline threaded through the
	// request context.
	requestTimeout = 5 * time.Second
	// retryAfter is the Retry-After hint on shed (503) responses, jittered
	// per response into [retryAfter/2, retryAfter) so clients shed at the
	// same instant do not all come back at the same instant.
	retryAfter = time.Second
	// retryAfterSeed seeds the deterministic Retry-After jitter stream.
	retryAfterSeed = 1
	// maxBodyBytes caps request bodies. Query endpoints are GET-only, so
	// this is pure abuse protection.
	maxBodyBytes = 1 << 20
)

// Envelope is the request envelope every HTTP front end in the module mounts
// its routes on — the shard Server and the cluster coordinator alike. Probe
// routes get panic isolation and a method check; query routes get the full
// robustness envelope: request span, RED metrics and access log, panic
// isolation, body cap, per-request deadline, admission control with graceful
// drain, jittered Retry-After on sheds, and a fault point.
//
// The envelope's name prefixes every metric, span and fault point it
// records ("server" → server.requests, server.request, …), so each front end
// keeps its own series.
type Envelope struct {
	name   string
	names  envNames
	adm    *Admission
	clock  Clock
	obs    *obs.Observer
	flt    *fault.Injector
	logger *slog.Logger
	mux    *http.ServeMux

	draining atomic.Bool
	httpSrv  *http.Server

	// retryRng is the SplitMix64 state behind the jittered Retry-After
	// hints. Advanced with a single atomic add per shed, so concurrent
	// sheds draw distinct, deterministic values without a lock.
	retryRng atomic.Uint64
}

// envNames are an envelope's metric, span and fault-point names, built once
// from its name so the request path never concatenates strings.
type envNames struct {
	requests, admitted, queued, inflight, queueDepth string
	shed, shedCapacity, shedTimeout, shedDraining    string
	panics, request                                  string // request: span and fault point
	httpRequests, httpErrors, httpLatency            string
	draining, drainNS                                string
}

func namesFor(name string) envNames {
	return envNames{
		requests: name + ".requests", admitted: name + ".admitted", queued: name + ".queued",
		inflight: name + ".inflight", queueDepth: name + ".queue_depth",
		shed: name + ".shed", shedCapacity: name + ".shed_capacity", shedTimeout: name + ".shed_timeout",
		shedDraining: name + ".shed_draining", panics: name + ".panics", request: name + ".request",
		httpRequests: name + ".http.requests", httpErrors: name + ".http.errors", httpLatency: name + ".http.latency_ns",
		draining: name + ".draining", drainNS: name + ".drain_ns",
	}
}

// NewEnvelope returns an envelope with no routes mounted. name prefixes
// every metric, span and fault point the envelope records; o, flt and logger
// may be nil (no metrics, no fault point, no access log), and a nil clock is
// the real one.
func NewEnvelope(name string, o *obs.Observer, flt *fault.Injector, clock Clock, logger *slog.Logger) *Envelope {
	if clock == nil {
		clock = realClock{}
	}
	e := &Envelope{
		name:   name,
		names:  namesFor(name),
		adm:    NewAdmission(maxInFlight, maxQueue),
		clock:  clock,
		obs:    o,
		flt:    flt,
		logger: logger,
		mux:    http.NewServeMux(),
	}
	e.retryRng.Store(retryAfterSeed)
	e.adm.OnQueued = func() { e.obs.Count(e.names.queued, 1) }
	return e
}

// Handler returns the handler serving every mounted route.
func (e *Envelope) Handler() http.Handler { return e.mux }

// Clock returns the envelope's time source (the real clock unless the
// caller substituted one).
func (e *Envelope) Clock() Clock { return e.clock }

// Draining reports whether Shutdown has begun.
func (e *Envelope) Draining() bool { return e.draining.Load() }

// Serve binds addr (e.g. ":8080" or "127.0.0.1:0"), starts the hardened HTTP
// server in a background goroutine, and returns the bound address. Stop it
// with Shutdown.
func (e *Envelope) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: listen %s: %w", e.name, addr, err)
	}
	srv := obs.HardenedServer(e.Handler())
	e.httpSrv = srv
	//spatialvet:ignore goroleak Serve blocks until the listener closes; Shutdown stops it and awaits in-flight requests
	go func() { _ = srv.Serve(ln) }() //spatialvet:ignore errdrop Serve returns ErrServerClosed on shutdown; Shutdown owns the lifecycle
	return ln.Addr().String(), nil
}

// Shutdown drains gracefully: admission shuts (new requests get 503
// draining, queued waiters are rejected), Draining turns true, every
// already-admitted request runs to completion, and the listener closes —
// all within ctx's deadline. If the deadline expires with requests still in
// flight the remaining connections are closed forcibly and the deadline
// error is returned. The drain duration lands in the <name>.drain_ns gauge.
func (e *Envelope) Shutdown(ctx context.Context) error {
	start := e.clock.Now()
	e.draining.Store(true)
	e.obs.SetGauge(e.names.draining, 1)
	e.adm.BeginDrain()
	drainErr := e.adm.AwaitDrained(ctx)
	e.obs.SetGauge(e.names.drainNS, float64(e.clock.Now().Sub(start).Nanoseconds()))
	if e.httpSrv != nil {
		if drainErr != nil {
			e.httpSrv.Close() //spatialvet:ignore errdrop forced close after a blown drain deadline; the deadline error is the one reported
		} else if err := e.httpSrv.Shutdown(ctx); err != nil {
			e.httpSrv.Close() //spatialvet:ignore errdrop forced close fallback; the Shutdown error is the one reported
			return err
		}
	}
	return drainErr
}

// Probe mounts a liveness/readiness endpoint: panic isolation and a method
// check only — probes must keep answering while the query path sheds load,
// so they bypass admission entirely.
func (e *Envelope) Probe(pattern string, h HandlerFunc) {
	e.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer e.recoverRequest(sw)
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			WriteError(sw, ErrMethodNotAllowed.WithDetail("%s not allowed", r.Method))
			return
		}
		if err := h(sw, r); err != nil {
			WriteError(sw, err)
		}
	})
}

// Query mounts a query endpoint at route behind the full robustness
// envelope, outermost first: request accounting (span, RED metrics, access
// log), panic isolation, method check, body cap, per-request deadline,
// admission control, fault injection, then the handler. route is also the static endpoint label of the per-route×status
// series, so metric cardinality stays bounded by the route table, not by
// request URLs.
func (e *Envelope) Query(route string, h HandlerFunc) {
	e.mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		e.obs.Count(e.names.requests, 1)

		// Adopt an inbound W3C traceparent (or start a fresh trace) and open
		// the request's root span. The response echoes the request's own
		// trace context so callers can find it in /debug/traces.
		ctx := r.Context()
		if tc, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
			ctx = obs.ContextWithTrace(ctx, tc)
		}
		ctx, sp := e.obs.StartSpanCtx(ctx, e.names.request, "route", route) //spatialvet:ignore spanend ended by the deferred finishRequest below, which needs the final status first
		if tc, ok := obs.TraceFromContext(ctx); ok {
			sw.Header().Set("traceparent", tc.Traceparent())
		}
		start := e.clock.Now()
		shed := ""
		// finish must be registered BEFORE the recover so panic unwinding
		// recovers (writing the 500) first and accounting sees that status.
		defer func() { e.finishRequest(sw, route, shed, sp, start) }()
		defer e.recoverRequest(sw)

		if r.Method != http.MethodGet {
			WriteError(sw, ErrMethodNotAllowed.WithDetail("%s not allowed; query endpoints are GET-only", r.Method))
			return
		}
		r.Body = http.MaxBytesReader(sw, r.Body, maxBodyBytes)

		ctx, cancel := context.WithTimeout(ctx, requestTimeout)
		defer cancel()
		r = r.WithContext(ctx)

		queued, err := e.adm.Admit(ctx, e.clock, queueWait)
		if err != nil {
			shed = e.countShed(queued, err)
			WriteError(sw, e.attachRetryAfter(err))
			return
		}
		defer e.adm.Release()
		e.obs.Count(e.names.admitted, 1)
		inflight, qdepth := e.adm.Depth()
		e.obs.SetGauge(e.names.inflight, float64(inflight))
		e.obs.SetGauge(e.names.queueDepth, float64(qdepth))

		if ferr := e.flt.Hit(e.names.request); ferr != nil {
			WriteError(sw, asError(ferr))
			return
		}
		if err := h(sw, r); err != nil {
			if ctx.Err() != nil {
				err = ErrTimeout.WithDetail("request deadline (%v) expired: %v", requestTimeout, err)
			}
			WriteError(sw, err)
		}
	})
}

// finishRequest closes out one query request: it ends the request span
// (status and shed reason become span attributes), records the RED
// route×status series, and emits the structured access log line.
func (e *Envelope) finishRequest(sw *statusWriter, route, shed string, sp obs.Span, start time.Time) {
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	elapsed := e.clock.Now().Sub(start)
	code := strconv.Itoa(status)
	if e.obs.Enabled() {
		e.obs.Count(obs.FoldLabels(e.names.httpRequests, []string{route, code}), 1)
		if status >= 500 {
			e.obs.Count(obs.FoldLabels(e.names.httpErrors, []string{route, code}), 1)
		}
		e.obs.Observe(obs.FoldLabels(e.names.httpLatency, []string{route, code}), float64(elapsed.Nanoseconds()))
	}
	if sp.Traced() {
		sp.End("status", code, "shed", shed)
	} else {
		sp.End()
	}
	if e.logger == nil {
		return
	}
	traceID := ""
	if tc, ok := obs.ParseTraceparent(sw.Header().Get("traceparent")); ok {
		traceID = tc.TraceID.String()
	}
	e.logger.Info("request",
		slog.String("trace_id", traceID),
		slog.String("route", route),
		slog.Int("status", status),
		slog.String("shed", shed),
		slog.Duration("latency", elapsed),
	)
}

// recoverRequest converts a handler panic into a 500 on this one request:
// the goroutine's damage stays contained, the counter records it, and every
// other request proceeds untouched.
func (e *Envelope) recoverRequest(sw *statusWriter) {
	if rec := recover(); rec != nil {
		e.obs.Count(e.names.panics, 1)
		WriteError(sw, ErrInternal.WithDetail("handler panicked: %v", rec))
	}
}

// countShed records which kind of shed occurred and returns its label (the
// span attribute / access-log shed reason).
func (e *Envelope) countShed(queued bool, err error) string {
	reason := "capacity"
	switch {
	case is(err, ErrDraining):
		reason = "draining"
		e.obs.Count(e.names.shedDraining, 1)
	case queued:
		reason = "queue_timeout"
		e.obs.Count(e.names.shedTimeout, 1)
	default:
		e.obs.Count(e.names.shedCapacity, 1)
	}
	e.obs.Count(e.names.shed, 1)
	return reason
}

// attachRetryAfter decorates shed errors with a jittered Retry-After hint;
// other errors pass through. Each shed draws a deterministic factor in
// [0.5, 1.0) from the envelope's seeded SplitMix64 stream, spreading the
// moment a synchronized burst of shed clients comes back.
func (e *Envelope) attachRetryAfter(err error) error {
	se := asError(err)
	if is(se, ErrOverloaded) || is(se, ErrDraining) {
		return se.withRetryAfter(e.jitteredRetryAfter())
	}
	return err
}

// jitteredRetryAfter scales retryAfter by the next factor in [0.5, 1.0) of
// the seeded jitter stream.
func (e *Envelope) jitteredRetryAfter() time.Duration {
	// SplitMix64: an atomic add of the Weyl constant advances the stream;
	// the mix function turns the state into the output. Concurrent sheds
	// each get a distinct draw, and the sequence is seed-deterministic.
	x := e.retryRng.Add(0x9e3779b97f4a7c15)
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	f := 0.5 + 0.5*float64(z>>11)/float64(1<<53)
	return time.Duration(float64(retryAfter) * f)
}

// is reports whether err matches the sentinel by Code.
func is(err error, sentinel *Error) bool {
	se := asError(err)
	return se.Code == sentinel.Code
}

// WriteJSON writes v as the 200 response.
func WriteJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("encoding response: %w", err)
	}
	return nil
}

// StoredBody is a JSON response body encoded once and written on many reads:
// the bytes WriteJSON writes for its value, their Content-Length, and a
// strong ETag, the quoted hex of the first 16 bytes of their SHA-256. The
// tag names the content, never a generation number: generations restart
// with the process, so a restored shard can serve other bytes under a number
// it has used before, while equal bytes get equal tags in any process.
type StoredBody struct {
	json   []byte
	length string
	etag   string
}

// EncodeBody encodes v into a StoredBody.
func EncodeBody(v any) (*StoredBody, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("encoding response: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return &StoredBody{
		json:   buf.Bytes(),
		length: strconv.Itoa(buf.Len()),
		etag:   `"` + hex.EncodeToString(sum[:16]) + `"`,
	}, nil
}

// Write answers r with the stored body: 304 Not Modified with no body when
// r's If-None-Match names the body's ETag, else 200 with Content-Type and
// Content-Length. Both carry the ETag, and headers already set on w, such as
// a degraded view's Warning, go out with either.
func (b *StoredBody) Write(w http.ResponseWriter, r *http.Request) error {
	h := w.Header()
	h.Set("ETag", b.etag)
	if matchesETag(r.Header.Get("If-None-Match"), b.etag) {
		w.WriteHeader(http.StatusNotModified)
		return nil
	}
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", b.length)
	if _, err := w.Write(b.json); err != nil {
		return fmt.Errorf("writing response: %w", err)
	}
	return nil
}

// matchesETag reports whether an If-None-Match list names tag: "*" or the
// tag itself, with or without the W/ prefix (If-None-Match compares weakly,
// RFC 9110 §13.1.2).
func matchesETag(list, tag string) bool {
	for list != "" {
		var item string
		item, list, _ = strings.Cut(list, ",")
		item = strings.TrimSpace(item)
		if item == "*" || strings.TrimPrefix(item, "W/") == tag {
			return true
		}
	}
	return false
}
