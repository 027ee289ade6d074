package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialrepart/internal/breaker"
	"spatialrepart/internal/core"
	"spatialrepart/internal/obs"
	"spatialrepart/internal/stream"
)

// stubSource is a controllable Source. gate, when non-nil, makes CurrentCtx
// block until the gate channel is closed (after signaling entry on entered),
// so tests can pin requests in flight deterministically.
type stubSource struct {
	mu      sync.Mutex
	view    stream.View
	err     error
	stats   stream.Stats
	panicit bool

	entered chan struct{} // receives one send per Current call (if non-nil)
	gate    chan struct{} // Current blocks until closed (if non-nil)
}

func (s *stubSource) CurrentCtx(context.Context) (stream.View, error) {
	s.mu.Lock()
	entered, gate, panicit := s.entered, s.gate, s.panicit
	v, err := s.view, s.err
	s.mu.Unlock()
	if entered != nil {
		entered <- struct{}{}
	}
	if gate != nil {
		<-gate
	}
	if panicit {
		panic("stub source poisoned")
	}
	return v, err
}

func (s *stubSource) Stats() stream.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *stubSource) Report() stream.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return stream.Report{Generation: s.stats.Generation, Accepted: s.stats.Accepted}
}

// testView builds a tiny served view: a 2x2 grid split into two 2x1 groups.
func testView(gen int, degraded bool) stream.View {
	p := &core.Partition{
		Rows: 2, Cols: 2,
		Groups: []core.CellGroup{
			{RBeg: 0, REnd: 1, CBeg: 0, CEnd: 0},
			{RBeg: 0, REnd: 1, CBeg: 1, CEnd: 1},
		},
		CellToGroup: []int{0, 1, 0, 1},
	}
	return stream.View{
		Repartitioned: &core.Repartitioned{
			Partition: p,
			Features:  [][]float64{{1, 2}, {3, 4}},
			IFL:       0.05,
		},
		Degraded:   degraded,
		Generation: gen,
	}
}

func readySource() *stubSource {
	return &stubSource{
		view:  testView(3, false),
		stats: stream.Stats{HasView: true, Generation: 3, Accepted: 10},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// get issues a GET and returns status, headers, and decoded JSON body.
func get(t *testing.T, url string) (int, http.Header, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatalf("body %q: %v", raw, err)
		}
	}
	return resp.StatusCode, resp.Header, body
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil Source accepted")
	}
}

func TestErrorTaxonomy(t *testing.T) {
	if !errors.Is(ErrOverloaded.WithDetail("queue full"), ErrOverloaded) {
		t.Error("detailed copy does not match its sentinel")
	}
	if errors.Is(ErrOverloaded, ErrDraining) {
		t.Error("distinct codes match")
	}
	if got := asError(errors.New("boom")); got.Status != http.StatusInternalServerError {
		t.Errorf("unknown error mapped to %d", got.Status)
	}
	if got := retryAfterSeconds(300 * time.Millisecond); got != "1" {
		t.Errorf("sub-second Retry-After = %q, want 1", got)
	}
	if got := retryAfterSeconds(1500 * time.Millisecond); got != "2" {
		t.Errorf("1.5s Retry-After = %q, want 2 (round up)", got)
	}
}

func TestHealthzAlwaysOK(t *testing.T) {
	src := &stubSource{} // no view, nothing ready
	_, ts := newTestServer(t, Config{Source: src})
	status, _, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", status, body)
	}
}

func TestReadyzStates(t *testing.T) {
	src := &stubSource{}
	s, ts := newTestServer(t, Config{Source: src})

	// No view yet: not ready.
	status, _, body := get(t, ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable || body["ready"] != false {
		t.Fatalf("no-view readyz = %d %v", status, body)
	}

	// View exists, breaker closed: ready.
	src.mu.Lock()
	src.stats = stream.Stats{HasView: true, Generation: 1}
	src.mu.Unlock()
	status, _, body = get(t, ts.URL+"/readyz")
	if status != http.StatusOK || body["ready"] != true {
		t.Fatalf("ready readyz = %d %v", status, body)
	}

	// Breaker open: not ready (degraded view may still serve).
	src.mu.Lock()
	src.stats.Breaker = breaker.Open
	src.mu.Unlock()
	status, _, body = get(t, ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable || body["reason"] != "stream circuit breaker open" {
		t.Fatalf("breaker-open readyz = %d %v", status, body)
	}

	// Draining: not ready; healthz stays ok.
	src.mu.Lock()
	src.stats.Breaker = breaker.Closed
	src.mu.Unlock()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	status, _, body = get(t, ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable || body["reason"] != "draining" {
		t.Fatalf("draining readyz = %d %v", status, body)
	}
	if status, _, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz while draining = %d", status)
	}
}

func TestViewEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Source: readySource()})
	status, hdr, body := get(t, ts.URL+"/view")
	if status != http.StatusOK {
		t.Fatalf("view = %d %v", status, body)
	}
	if hdr.Get("Warning") != "" {
		t.Errorf("fresh view carries Warning header %q", hdr.Get("Warning"))
	}
	if body["generation"] != float64(3) || body["degraded"] != false {
		t.Errorf("view meta = %v", body)
	}
	groups, ok := body["cell_groups"].([]any)
	if !ok || len(groups) != 2 {
		t.Fatalf("cell_groups = %v", body["cell_groups"])
	}
	g0 := groups[0].(map[string]any)
	if g0["cells"] != float64(2) || g0["features"].([]any)[0] != float64(1) {
		t.Errorf("group 0 = %v", g0)
	}

	// Summary form drops the group list.
	_, _, body = get(t, ts.URL+"/view?groups=false")
	if _, present := body["cell_groups"]; present {
		t.Errorf("summary view still lists groups: %v", body)
	}
}

func TestDegradedViewServesWithWarning(t *testing.T) {
	src := &stubSource{
		view:  testView(7, true),
		stats: stream.Stats{HasView: true, Generation: 7, Breaker: breaker.Open},
	}
	_, ts := newTestServer(t, Config{Source: src})
	status, hdr, body := get(t, ts.URL+"/view")
	if status != http.StatusOK {
		t.Fatalf("degraded view = %d %v", status, body)
	}
	if body["degraded"] != true {
		t.Errorf("degraded flag missing: %v", body)
	}
	if !strings.Contains(hdr.Get("Warning"), "110") {
		t.Errorf("Warning header = %q", hdr.Get("Warning"))
	}
}

func TestGroupAndCellLookup(t *testing.T) {
	_, ts := newTestServer(t, Config{Source: readySource()})

	status, _, body := get(t, ts.URL+"/group?id=1")
	if status != http.StatusOK || body["id"] != float64(1) || body["col_begin"] != float64(1) {
		t.Fatalf("group 1 = %d %v", status, body)
	}
	status, _, body = get(t, ts.URL+"/group?id=9")
	if status != http.StatusNotFound || body["error"] != "not_found" {
		t.Fatalf("missing group = %d %v", status, body)
	}
	status, _, body = get(t, ts.URL+"/group?id=x")
	if status != http.StatusBadRequest || body["error"] != "bad_request" {
		t.Fatalf("bad group id = %d %v", status, body)
	}

	status, _, body = get(t, ts.URL+"/cell?row=1&col=0")
	if status != http.StatusOK {
		t.Fatalf("cell = %d %v", status, body)
	}
	if body["group"].(map[string]any)["id"] != float64(0) {
		t.Errorf("cell (1,0) group = %v", body["group"])
	}
	status, _, _ = get(t, ts.URL+"/cell?row=5&col=0")
	if status != http.StatusNotFound {
		t.Fatalf("out-of-grid cell = %d", status)
	}
	status, _, _ = get(t, ts.URL+"/cell?row=&col=0")
	if status != http.StatusBadRequest {
		t.Fatalf("malformed cell = %d", status)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Source: readySource()})
	status, _, body := get(t, ts.URL+"/stats")
	if status != http.StatusOK || body["accepted"] != float64(10) {
		t.Fatalf("stats = %d %v", status, body)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{Source: readySource()})
	resp, err := http.Post(ts.URL+"/view", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /view = %d", resp.StatusCode)
	}
}

func TestNoViewIsNotReadyError(t *testing.T) {
	src := &stubSource{err: errors.New("no view has ever been produced")}
	_, ts := newTestServer(t, Config{Source: src})
	status, _, body := get(t, ts.URL+"/view")
	if status != http.StatusServiceUnavailable || body["error"] != "not_ready" {
		t.Fatalf("no-view /view = %d %v", status, body)
	}
}

func TestPanicIsolation(t *testing.T) {
	src := &stubSource{panicit: true}
	o := obs.New()
	s, ts := newTestServer(t, Config{Source: src, Obs: o})
	status, _, body := get(t, ts.URL+"/view")
	if status != http.StatusInternalServerError || body["error"] != "internal" {
		t.Fatalf("panicking handler = %d %v", status, body)
	}
	if n := o.Registry().Counter("server.panics").Value(); n != 1 {
		t.Errorf("server.panics = %d", n)
	}

	// The server survives: heal the source and the next request succeeds.
	src.mu.Lock()
	src.panicit = false
	src.view = testView(1, false)
	src.mu.Unlock()
	if status, _, _ := get(t, ts.URL+"/view"); status != http.StatusOK {
		t.Fatalf("request after panic = %d", status)
	}
	// In-flight accounting was not leaked by the panic.
	if inflight, _ := s.adm.Depth(); inflight != 0 {
		t.Errorf("in-flight after panic = %d", inflight)
	}
}

func TestAdmissionQueueHandoff(t *testing.T) {
	a := NewAdmission(1, 1)
	clock := realClock{}
	if q, err := a.Admit(context.Background(), clock, time.Second); err != nil || q {
		t.Fatalf("first admit: queued=%v err=%v", q, err)
	}

	// Second request queues; release hands the slot over directly.
	done := make(chan error, 1)
	go func() {
		q, err := a.Admit(context.Background(), clock, 5*time.Second)
		if err == nil && !q {
			err = errors.New("handed-off admit not marked queued")
		}
		done <- err
	}()
	for {
		if _, queued := a.Depth(); queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Queue full now: a third request is shed immediately.
	if _, err := a.Admit(context.Background(), clock, time.Second); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-queue admit err = %v", err)
	}
	a.Release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if inflight, queued := a.Depth(); inflight != 1 || queued != 0 {
		t.Fatalf("after handoff: inflight=%d queued=%d", inflight, queued)
	}
	a.Release()
	if inflight, _ := a.Depth(); inflight != 0 {
		t.Fatalf("final inflight = %d", inflight)
	}
}

func TestAdmissionCanceledWhileQueued(t *testing.T) {
	a := NewAdmission(1, 4)
	clock := realClock{}
	if _, err := a.Admit(context.Background(), clock, time.Second); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Admit(ctx, clock, time.Hour)
		done <- err
	}()
	for {
		if _, queued := a.Depth(); queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("canceled waiter err = %v", err)
	}
	if _, queued := a.Depth(); queued != 0 {
		t.Fatal("canceled waiter left in queue")
	}
	a.Release()
}

func TestServeAndShutdownOverTCP(t *testing.T) {
	s, err := New(Config{Source: readySource()})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if status, _, _ := get(t, "http://"+addr+"/readyz"); status != http.StatusOK {
		t.Fatalf("readyz over TCP = %d", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
}
