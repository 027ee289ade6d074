package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"spatialrepart/internal/obs"
)

// TestRequestTraceparentRoundTrip: a request carrying a W3C traceparent gets
// its trace adopted (same trace ID echoed in the response header, new span
// ID), and the server.request span lands in the flight recorder as a child of
// the remote span with route/status attributes.
func TestRequestTraceparentRoundTrip(t *testing.T) {
	o := obs.NewSeeded(1)
	_, ts := newTestServer(t, Config{Source: readySource(), Obs: o})
	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/view", nil)
	req.Header.Set("traceparent", inbound)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	echoed := resp.Header.Get("traceparent")
	tc, ok := obs.ParseTraceparent(echoed)
	if !ok {
		t.Fatalf("response traceparent %q unparsable", echoed)
	}
	remote, _ := obs.ParseTraceparent(inbound)
	if tc.TraceID != remote.TraceID {
		t.Fatalf("response trace %s, want the inbound trace %s", tc.TraceID, remote.TraceID)
	}
	if tc.SpanID == remote.SpanID {
		t.Fatal("server reused the caller's span ID instead of starting its own span")
	}

	var reqSpan *obs.SpanEvent
	for _, e := range o.Flight().Snapshot() {
		if e.Name == "server.request" {
			e := e
			reqSpan = &e
		}
	}
	if reqSpan == nil {
		t.Fatal("no server.request span recorded")
	}
	if reqSpan.Trace != remote.TraceID || reqSpan.Parent != remote.SpanID {
		t.Fatalf("span trace/parent %s/%s, want %s/%s", reqSpan.Trace, reqSpan.Parent, remote.TraceID, remote.SpanID)
	}
	attrs := map[string]string{}
	for i := 0; i+1 < len(reqSpan.Attrs); i += 2 {
		attrs[reqSpan.Attrs[i]] = reqSpan.Attrs[i+1]
	}
	if attrs["route"] != "/view" || attrs["status"] != "200" || attrs["shed"] != "" {
		t.Fatalf("span attrs %v, want route=/view status=200 shed=\"\"", attrs)
	}
}

// TestREDMetricsPerRouteStatus: every query response increments the
// server.http.requests:<route>:<status> counter and observes latency; 5xx
// responses also land in the errors series.
func TestREDMetricsPerRouteStatus(t *testing.T) {
	o := obs.NewSeeded(2)
	_, ts := newTestServer(t, Config{Source: readySource(), Obs: o})
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/view")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/group?id=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	reg := o.Registry()
	if n := reg.Counter("server.http.requests:/view:200").Value(); n != 3 {
		t.Errorf("requests:/view:200 = %d, want 3", n)
	}
	if n := reg.Counter("server.http.requests:/group:400").Value(); n != 1 {
		t.Errorf("requests:/group:400 = %d, want 1", n)
	}
	if n := reg.Counter("server.http.errors:/group:400").Value(); n != 0 {
		t.Errorf("4xx counted as error: %d", n)
	}
	if c := reg.Histogram("server.http.latency_ns:/view:200", nil).Count(); c != 3 {
		t.Errorf("latency histogram count %d, want 3", c)
	}
}

// TestAccessLogSampled: every query request produces exactly one structured
// line carrying trace_id, route, status, and latency — the log is not
// sampled.
func TestAccessLogSampled(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	o := obs.NewSeeded(3)
	_, ts := newTestServer(t, Config{Source: readySource(), Obs: o, Logger: logger})
	for i := 0; i < 4; i++ {
		resp, err := http.Get(ts.URL + "/view")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 4 {
		t.Fatalf("%d access-log lines for 4 requests, want 4:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	traces := map[string]bool{}
	for _, line := range lines {
		var rec struct {
			Msg     string `json:"msg"`
			TraceID string `json:"trace_id"`
			Route   string `json:"route"`
			Status  int    `json:"status"`
			Latency any    `json:"latency"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line is not JSON: %v", err)
		}
		if rec.Msg != "request" || rec.Route != "/view" || rec.Status != 200 {
			t.Fatalf("unexpected access log record %+v", rec)
		}
		if len(rec.TraceID) != 32 {
			t.Fatalf("trace_id %q, want 32 hex chars", rec.TraceID)
		}
		if rec.Latency == nil {
			t.Fatal("access log record lacks latency")
		}
		traces[rec.TraceID] = true
	}
	if len(traces) != len(lines) {
		t.Fatalf("%d distinct trace IDs over %d lines, want one line per request", len(traces), len(lines))
	}
}

type lockedWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// TestShedReasonInSpan: a request shed by the draining gate records its shed
// reason in the span attributes.
func TestShedReasonInSpan(t *testing.T) {
	o := obs.NewSeeded(4)
	s, ts := newTestServer(t, Config{Source: readySource(), Obs: o})
	s.adm.BeginDrain()
	resp, err := http.Get(ts.URL + "/view")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 while draining", resp.StatusCode)
	}
	var found bool
	for _, e := range o.Flight().Snapshot() {
		if e.Name != "server.request" {
			continue
		}
		attrs := map[string]string{}
		for i := 0; i+1 < len(e.Attrs); i += 2 {
			attrs[e.Attrs[i]] = e.Attrs[i+1]
		}
		if attrs["shed"] == "draining" && attrs["status"] == "503" {
			found = true
		}
	}
	if !found {
		t.Fatal("no server.request span with shed=draining status=503")
	}
}
