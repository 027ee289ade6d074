package server

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"spatialrepart/internal/breaker"
	"spatialrepart/internal/fault"
	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
	"spatialrepart/internal/stream"
)

// fakeClock is a manually advanced Clock: Now returns the held instant and
// After registers a one-shot timer that Advance fires once the instant
// passes. All methods are safe for concurrent use (-race).
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	at time.Time
	ch chan time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{at: c.now.Add(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		t.ch <- c.now
		return t.ch
	}
	c.timers = append(c.timers, t)
	return t.ch
}

// Advance moves the clock forward and fires every timer whose deadline has
// passed.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	rest := c.timers[:0]
	for _, t := range c.timers {
		if !c.now.Before(t.at) {
			t.ch <- c.now
		} else {
			rest = append(rest, t)
		}
	}
	c.timers = rest
}

// pendingTimers reports how many timers are armed but unfired.
func (c *fakeClock) pendingTimers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// waitFor polls cond until true or the (generous, real-time) scaffold
// deadline passes. The deadline only bounds test hangs; no assertion depends
// on real timing.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

func counter(o *obs.Observer, name string) int64 {
	return o.Registry().Counter(name).Value()
}

// getStatus issues a GET and returns status + Retry-After header.
func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// gatedSource is a ready stub whose every CurrentCtx blocks on its gate, so
// each /view request holds its in-flight slot until the gate closes.
// entered holds one send per in-flight slot, so no handler blocks on it.
func gatedSource() *stubSource {
	return &stubSource{
		view:    testView(1, false),
		stats:   stream.Stats{HasView: true, Generation: 1},
		entered: make(chan struct{}, maxInFlight),
		gate:    make(chan struct{}),
	}
}

// occupy issues maxInFlight GETs of /view and returns once every one holds an
// in-flight slot inside the gated source. Each request's status arrives on
// the returned channel once the gate opens.
func occupy(t *testing.T, wg *sync.WaitGroup, url string, src *stubSource) chan int {
	t.Helper()
	statuses := make(chan int, maxInFlight)
	for i := 0; i < maxInFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _ := getStatus(t, url+"/view")
			statuses <- status
		}()
	}
	for i := 0; i < maxInFlight; i++ {
		<-src.entered
	}
	return statuses
}

// TestChaosOverloadShedsExactly pins the load-shedding contract: with the
// in-flight limit and queue full, every excess request is shed immediately
// with 503 + Retry-After, and afterwards the obs counters reconcile exactly —
// admitted, queued, and shed account for every request with nothing lost.
func TestChaosOverloadShedsExactly(t *testing.T) {
	fc := newFakeClock()
	o := obs.New()
	src := gatedSource()
	_, ts := newTestServer(t, Config{Source: src, Obs: o, Clock: fc})

	// Every slot occupied: the handlers are inside Current, holding the gate.
	var wg sync.WaitGroup
	inflight := occupy(t, &wg, ts.URL, src)

	// The next maxQueue requests queue (they hold no slot and shed nothing;
	// the fake clock never fires their queue wait).
	queued := make(chan int, maxQueue)
	for i := 0; i < maxQueue; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _ := getStatus(t, ts.URL+"/view")
			queued <- status
		}()
	}
	waitFor(t, func() bool { return counter(o, "server.queued") == maxQueue }, "the queue to fill")

	// Capacity and queue full: four more requests shed synchronously, each
	// with the 1 s Retry-After jittered into [0.5 s, 1 s) and rounded up.
	for i := 0; i < 4; i++ {
		status, retryAfter := getStatus(t, ts.URL+"/view")
		if status != http.StatusServiceUnavailable {
			t.Fatalf("shed request %d: status %d", i, status)
		}
		if retryAfter != "1" {
			t.Fatalf("shed request %d: Retry-After %q, want 1", i, retryAfter)
		}
	}

	// Release the gate: every in-flight and queued request completes.
	close(src.gate)
	wg.Wait()
	close(inflight)
	close(queued)
	for _, results := range []chan int{inflight, queued} {
		for status := range results {
			if status != http.StatusOK {
				t.Fatalf("gated request finished with %d", status)
			}
		}
	}

	// Exact reconciliation: 84 requests = 80 admitted (16 of them queued) +
	// 4 shed at capacity; no timeouts, no drain sheds.
	for name, want := range map[string]int64{
		"server.requests":      maxInFlight + maxQueue + 4,
		"server.admitted":      maxInFlight + maxQueue,
		"server.queued":        maxQueue,
		"server.shed":          4,
		"server.shed_capacity": 4,
		"server.shed_timeout":  0,
		"server.shed_draining": 0,
		"server.panics":        0,
	} {
		if got := counter(o, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestChaosQueueDeadline: a queued request is shed once the fake clock steps
// past the 100 ms queue wait — the deadline-aware queue never holds a
// request indefinitely.
func TestChaosQueueDeadline(t *testing.T) {
	fc := newFakeClock()
	o := obs.New()
	src := gatedSource()
	s, ts := newTestServer(t, Config{Source: src, Obs: o, Clock: fc})

	var wg sync.WaitGroup
	inflight := occupy(t, &wg, ts.URL, src)

	queuedStatus := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, _ := getStatus(t, ts.URL+"/view")
		queuedStatus <- status
	}()
	waitFor(t, func() bool { return fc.pendingTimers() == 1 }, "queue-wait timer to arm")

	fc.Advance(queueWait + time.Millisecond)
	if status := <-queuedStatus; status != http.StatusServiceUnavailable {
		t.Fatalf("expired waiter = %d, want 503", status)
	}
	if got := counter(o, "server.shed_timeout"); got != 1 {
		t.Errorf("server.shed_timeout = %d, want 1", got)
	}

	close(src.gate)
	wg.Wait()
	close(inflight)
	for status := range inflight {
		if status != http.StatusOK {
			t.Errorf("gated request = %d", status)
		}
	}
	if inflight, queued := s.adm.Depth(); inflight != 0 || queued != 0 {
		t.Errorf("final depth: inflight=%d queued=%d", inflight, queued)
	}
}

// breakerOpenStream builds a real stream whose circuit breaker has been
// forced open through the internal/fault recompute injection point, with a
// last-good view still installed. The stream opens its breaker on the third
// consecutive failure and backs off from 100 ms, jittered into [50, 100) ms
// after the first failure and [100, 200) ms after the second, so the test
// sleeps past each window on the real clock.
func breakerOpenStream(t *testing.T) *stream.Repartitioner {
	t.Helper()
	inj := fault.New(5)
	attrs := []grid.Attribute{
		{Name: "count", Agg: grid.Sum, Integer: true},
		{Name: "value", Agg: grid.Average},
	}
	s, err := stream.New(grid.Bounds{MinLat: 0, MaxLat: 10, MinLon: 0, MaxLon: 10}, 6, 6, attrs, stream.Options{
		Threshold: 0.2,
		Fault:     inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fill only lat < 8 so the top row of cells stays null.
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		rec := grid.Record{
			Lat: rng.Float64() * 8, Lon: rng.Float64() * 10,
			Values: []float64{1, rng.Float64() * 100},
		}
		if err := s.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := s.Current(); err != nil {
		t.Fatal(err)
	} else if v.Degraded {
		t.Fatal("first view degraded")
	}
	// Break the null structure so the next attempt must fully recompute —
	// where the injection point fires.
	if err := s.Add(grid.Record{Lat: 9.5, Lon: 9.5, Values: []float64{1, 50}}); err != nil {
		t.Fatal(err)
	}
	inj.Set("stream.recompute", fault.Plan{Count: -1, Err: errors.New("chaos: dependency down")})
	for i, backoff := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 0} {
		v, err := s.Current()
		if err != nil || !v.Degraded {
			t.Fatalf("failure %d: degraded serve: view %+v, err %v", i+1, v, err)
		}
		time.Sleep(backoff)
	}
	if hits, fired := inj.Stats("stream.recompute"); hits != 3 || fired != 3 {
		t.Fatalf("recompute fault point hit %d times, fired %d, want 3 and 3", hits, fired)
	}
	if st := s.Stats(); st.Breaker != breaker.Open {
		t.Fatalf("breaker %v, want open", st.Breaker)
	}
	return s
}

// TestChaosBreakerOpenServing is the acceptance scenario: with the stream
// circuit breaker forced open via internal/fault, /readyz reports not-ready,
// /healthz stays ok, and the last-good degraded view still serves (flagged,
// with the Warning header) — resilience visible at the serving edge.
func TestChaosBreakerOpenServing(t *testing.T) {
	s := breakerOpenStream(t)
	_, ts := newTestServer(t, Config{Source: s})

	status, _, body := get(t, ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d %v, want 503", status, body)
	}
	if body["reason"] != "stream circuit breaker open" || body["breaker"] != "open" {
		t.Errorf("readyz body = %v", body)
	}

	if status, _, body := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz = %d %v, want 200", status, body)
	}

	status, hdr, body := get(t, ts.URL+"/view?groups=false")
	if status != http.StatusOK {
		t.Fatalf("degraded view = %d %v", status, body)
	}
	if body["degraded"] != true {
		t.Errorf("view not flagged degraded: %v", body)
	}
	if hdr.Get("Warning") == "" {
		t.Error("degraded view missing Warning header")
	}
	// Lookups against the last-good view work too.
	if status, _, _ := get(t, ts.URL+"/cell?row=0&col=0"); status != http.StatusOK {
		t.Errorf("cell lookup on degraded view = %d", status)
	}
}

// TestChaosGracefulDrain is the acceptance scenario for shutdown: every
// admitted in-flight request completes, queued waiters and new arrivals get
// 503, and Shutdown returns within the drain deadline.
func TestChaosGracefulDrain(t *testing.T) {
	fc := newFakeClock() // the queued waiter's queue wait never fires
	o := obs.New()
	src := gatedSource()
	s, ts := newTestServer(t, Config{Source: src, Obs: o, Clock: fc})

	var wg sync.WaitGroup
	inflightStatus := occupy(t, &wg, ts.URL, src)

	// One queued waiter: holds no slot, so drain rejects it.
	queuedStatus := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, _ := getStatus(t, ts.URL+"/view")
		queuedStatus <- status
	}()
	waitFor(t, func() bool { return counter(o, "server.queued") == 1 }, "waiter to queue")

	drainDone := make(chan error, 1)
	drainStart := time.Now()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- s.Shutdown(ctx)
	}()

	// The queued waiter is rejected as drain begins.
	if status := <-queuedStatus; status != http.StatusServiceUnavailable {
		t.Fatalf("queued waiter during drain = %d, want 503", status)
	}
	// New arrivals are refused while the in-flight requests still run.
	status, _, body := get(t, ts.URL+"/view")
	if status != http.StatusServiceUnavailable || body["error"] != "draining" {
		t.Fatalf("request during drain = %d %v", status, body)
	}
	// Readiness flips; liveness holds.
	if status, _, body := get(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable || body["reason"] != "draining" {
		t.Fatalf("readyz during drain = %d %v", status, body)
	}
	if status, _, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz during drain = %d", status)
	}

	select {
	case err := <-drainDone:
		t.Fatalf("Shutdown returned (%v) with requests still in flight", err)
	default:
	}

	// Release the gate: the admitted requests complete and the drain ends.
	close(src.gate)
	if err := <-drainDone; err != nil {
		t.Fatalf("Shutdown error: %v", err)
	}
	if elapsed := time.Since(drainStart); elapsed > 10*time.Second {
		t.Fatalf("drain took %v, past the deadline", elapsed)
	}
	wg.Wait()
	close(inflightStatus)
	for status := range inflightStatus {
		if status != http.StatusOK {
			t.Fatalf("admitted request finished with %d during drain", status)
		}
	}
	if got := counter(o, "server.shed_draining"); got != 2 {
		t.Errorf("server.shed_draining = %d, want 2 (1 rejected waiter + 1 new arrival)", got)
	}
	if o.Registry().Gauge("server.drain_ns").Value() < 0 {
		t.Error("drain duration gauge not set")
	}
	// Nothing admitted after drain began: the full in-flight set was the
	// total.
	if got := counter(o, "server.admitted"); got != maxInFlight {
		t.Errorf("server.admitted = %d, want %d", got, maxInFlight)
	}
}

// TestChaosInjectedFault drives the server.request injection point: an
// injected panic is recovered into a 500 on that one request, an injected
// error maps through the taxonomy, and the server keeps serving afterwards.
func TestChaosInjectedFault(t *testing.T) {
	inj := fault.New(9)
	o := obs.New()
	s, ts := newTestServer(t, Config{Source: readySource(), Obs: o, Fault: inj})

	inj.Set("server.request", fault.Plan{Count: 1, Panic: true})
	status, _, body := get(t, ts.URL+"/view")
	if status != http.StatusInternalServerError || body["error"] != "internal" {
		t.Fatalf("injected panic = %d %v", status, body)
	}
	if got := counter(o, "server.panics"); got != 1 {
		t.Errorf("server.panics = %d, want 1", got)
	}

	inj.Set("server.request", fault.Plan{Count: 1})
	if status, _, body := get(t, ts.URL+"/view"); status != http.StatusInternalServerError {
		t.Fatalf("injected error = %d %v", status, body)
	}

	// Plans exhausted: the request path is healthy again and accounting
	// shows no leaked slots.
	if status, _, _ := get(t, ts.URL+"/view"); status != http.StatusOK {
		t.Fatalf("post-chaos request = %d", status)
	}
	if inflight, queued := s.adm.Depth(); inflight != 0 || queued != 0 {
		t.Errorf("depth after chaos: inflight=%d queued=%d", inflight, queued)
	}
}
