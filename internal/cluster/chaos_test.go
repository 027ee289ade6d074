package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialrepart/internal/fault"
	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
	"spatialrepart/internal/server"
	"spatialrepart/internal/stream"
	"spatialrepart/internal/wal"
)

// fakeClock is the chaos suite's injected time source: Now is manual, and
// After auto-advances — a requested wait "elapses" immediately and
// deterministically, so retry backoffs and hedge delays never consume real
// wall-clock time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.now = c.now.Add(d)
	now := c.now
	c.mu.Unlock()
	ch := make(chan time.Time, 1)
	ch <- now
	return ch
}

// killableShard keeps one stable URL while its backing handler can be killed
// (connections abort mid-flight, like a SIGKILLed process behind a stable
// address) and later replaced by a restored instance.
type killableShard struct {
	ts          *httptest.Server
	handler     atomic.Pointer[http.Handler]
	down        atomic.Bool
	requests    atomic.Int64 // requests that reached the shard, up or down
	conditional atomic.Int64 // of those, the ones with an If-None-Match
	downHits    atomic.Int64 // requests aborted because the shard was down
}

func newKillableShard(h http.Handler) *killableShard {
	ks := &killableShard{}
	ks.handler.Store(&h)
	ks.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ks.requests.Add(1)
		if r.Header.Get("If-None-Match") != "" {
			ks.conditional.Add(1)
		}
		if ks.down.Load() {
			ks.downHits.Add(1)
			panic(http.ErrAbortHandler) // abort the connection: a transport-level failure
		}
		(*ks.handler.Load()).ServeHTTP(w, r)
	}))
	return ks
}

func (ks *killableShard) kill()                 { ks.down.Store(true) }
func (ks *killableShard) revive(h http.Handler) { ks.handler.Store(&h); ks.down.Store(false) }
func (ks *killableShard) Close()                { ks.ts.Close() }

// TestChaosKillDegradeRejoinReconverge is the full kill/rejoin arc:
//
//  1. healthy two-shard cluster — shard 1 WAL-backed — with a checkpoint
//     taken MID-INGEST, so the records acked after it exist only in the WAL;
//     baseline stitched view captured after all ingest, and stored: the next
//     read is served from it after both shards answered 304
//  2. shard 1 killed under load (SIGKILL semantics: the old process image is
//     abandoned, nothing flushed)
//  3. the cluster keeps serving 200 + Warning with shard 1 explicitly
//     missing; the breaker opens after exactly 1+RetryMax transport failures
//     and later fetches are refused locally (no new requests reach the dead
//     shard); /readyz stays ready-but-degraded. The first degraded read drops
//     the stored view, so every degraded read is stitched afresh and none
//     serves the pre-kill body
//  4. exact counter reconciliation: requests that reached the dead shard ==
//     breaker failures == the cluster.backend.failures counter == /stats
//     fetch_failures; the refusals match round-for-round
//  5. shard 1 is rebuilt from checkpoint + WAL replay behind the same URL —
//     ZERO acked-record loss, not just "back to the checkpoint" — the
//     breaker's backoff window passes (fake clock), and the stitched view
//     reconverges BYTE-IDENTICALLY to the baseline cell-groups: the first
//     read after the rejoin is stitched and stored, the next is served
//     stored, and the two are the same bytes.
func TestChaosKillDegradeRejoinReconverge(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	p, err := NewPlan(10, 6, testBounds(), 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(rng, testBounds(), 700)

	walDir := t.TempDir()
	wlog, err := wal.Open(walDir, wal.Options{SegmentBytes: 4096, Stamp: "chaos shard=1/2"})
	if err != nil {
		t.Fatal(err)
	}

	streams := make([]*stream.Repartitioner, 2)
	shards := make([]*killableShard, 2)
	backends := make([]string, 2)
	for i := range streams {
		opts := stream.Options{Threshold: 0.5, MinRecordsBetweenChecks: 1}
		if i == 1 {
			opts.WAL = wlog
		}
		streams[i], err = NewShard(p, i, testAttrs(), opts)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Source: streams[i]})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = newKillableShard(srv.Handler())
		defer shards[i].Close()
		backends[i] = shards[i].ts.URL
	}
	// Route the feed; shard 1's records are fed in two phases around a
	// checkpoint so a real WAL suffix exists when the kill comes.
	var shard1Recs []grid.Record
	for _, rec := range recs {
		shard, local, ok := p.Route(rec)
		if !ok {
			continue
		}
		if shard == 1 {
			shard1Recs = append(shard1Recs, local)
			continue
		}
		if err := streams[shard].Add(local); err != nil {
			t.Fatal(err)
		}
	}
	half := len(shard1Recs) / 2
	for _, rec := range shard1Recs[:half] {
		if err := streams[1].Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	var ckpt bytes.Buffer
	coveredSeq, err := streams[1].CheckpointSeq(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if coveredSeq != uint64(half) {
		t.Fatalf("checkpoint covers WAL seq %d, want %d", coveredSeq, half)
	}
	// Checkpoint-coordinated truncation: the pre-checkpoint segments go; the
	// post-checkpoint records below exist ONLY in the WAL suffix.
	if err := wlog.TruncateThrough(coveredSeq); err != nil {
		t.Fatal(err)
	}
	for _, rec := range shard1Recs[half:] {
		if err := streams[1].Add(rec); err != nil {
			t.Fatal(err)
		}
	}

	clock := newFakeClock()
	obsv := obs.New()
	// A dedicated client so the test can drop idle keep-alive connections
	// before the kill: Go's transport silently re-issues an idempotent GET
	// whose REUSED connection died, which would smear the exact
	// one-request-per-attempt accounting this test reconciles.
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	coord, err := New(Config{
		Plan: p, Backends: backends,
		Client:           client,
		Clock:            clock,
		Obs:              obsv,
		RetryMax:         2,
		FailureThreshold: 3,
		InitialBackoff:   100 * time.Millisecond,
		MaxBackoff:       time.Second,
		JitterSeed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, coord)
	front := httptest.NewServer(coord.Handler())
	defer front.Close()

	// ---- 1. healthy baseline ----
	resp, body := getBody(t, front.URL+"/view")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Warning") != "" {
		t.Fatalf("baseline: status %d warning %q", resp.StatusCode, resp.Header.Get("Warning"))
	}
	var baseline ViewBody
	if err := json.Unmarshal(body, &baseline); err != nil {
		t.Fatal(err)
	}
	baselineGroups, _ := json.Marshal(baseline.CellGroups)
	baselineBody := body
	reg := obsv.Registry()
	expectViewReads := func(label string, stored, stitched int64) {
		t.Helper()
		gotStored, gotStitched := reg.Counter("cluster.view.stored").Value(), reg.Counter("cluster.view.stitched").Value()
		if gotStored != stored || gotStitched != stitched {
			t.Fatalf("%s: %d stored and %d stitched /view reads, want %d and %d", label, gotStored, gotStitched, stored, stitched)
		}
	}
	if _, body = getBody(t, front.URL+"/view"); !bytes.Equal(body, baselineBody) {
		t.Fatalf("stored baseline read differs from the stitched one:\ngot  %s\nwant %s", body, baselineBody)
	}
	expectViewReads("baseline", 1, 1)

	// ---- 2. kill shard 1 ----
	// SIGKILL semantics: the live Log and Repartitioner are simply abandoned
	// — no Close, no final sync. Everything acked is already durable (the
	// default sync policy fsyncs per append).
	preKillRequests := shards[1].requests.Load()
	client.CloseIdleConnections()
	shards[1].kill()

	// ---- 3. degraded-but-serving under load ----
	var degraded ViewBody
	for i := 0; i < 5; i++ {
		resp, body = getBody(t, front.URL+"/view")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("kill round %d: status %d: %s", i, resp.StatusCode, body)
		}
		if resp.Header.Get("Warning") == "" {
			t.Fatalf("kill round %d: degraded response without Warning header", i)
		}
		if err := json.Unmarshal(body, &degraded); err != nil {
			t.Fatal(err)
		}
		if !degraded.Degraded || len(degraded.MissingShards) != 1 || degraded.MissingShards[0] != 1 {
			t.Fatalf("kill round %d: degraded=%t missing=%v", i, degraded.Degraded, degraded.MissingShards)
		}
		if bytes.Equal(body, baselineBody) {
			t.Fatalf("kill round %d served the pre-kill body", i)
		}
	}
	// Only the first degraded read revalidated the stored view; shard 1
	// went missing, so it was dropped, and the later rounds asked shard 0
	// without a tag.
	expectViewReads("degraded", 1, 6)
	if got := shards[0].conditional.Load(); got != 2 {
		t.Fatalf("shard 0 got %d conditional requests, want 2 (the stored baseline read, the first degraded read)", got)
	}
	// Bounded staleness: everything shard 0 owns is still served fresh — the
	// hole is exactly shard 1's band, never a stale mix of generations.
	band0 := p.Bands[0]
	want0 := 0
	for _, g := range baseline.CellGroups {
		if g.RowEnd < band0.Row1 {
			want0++
		}
	}
	if len(degraded.CellGroups) != want0 {
		t.Fatalf("degraded view has %d groups, want shard 0's %d", len(degraded.CellGroups), want0)
	}
	for _, g := range degraded.CellGroups {
		if g.RowEnd >= band0.Row1 {
			t.Fatalf("degraded view contains a group from the dead shard: %+v", g)
		}
	}

	// ---- 4. exact counter reconciliation ----
	// The first degraded /view burns the full retry budget (1+RetryMax = 3
	// transport failures) and opens the breaker exactly at
	// FailureThreshold=3; each of the 4 later /view rounds is refused
	// locally without touching the wire.
	downHits := shards[1].downHits.Load()
	if downHits != 3 {
		t.Fatalf("dead shard absorbed %d requests, want exactly 3 (then the breaker opened)", downHits)
	}
	if got := reg.Counter(obs.FoldLabels("cluster.backend.failures", []string{"1"})).Value(); got != downHits {
		t.Fatalf("cluster.backend.failures|1 = %d, shard absorbed %d", got, downHits)
	}
	if got := reg.Counter(obs.FoldLabels("cluster.backend.refused", []string{"1"})).Value(); got != 4 {
		t.Fatalf("cluster.backend.refused|1 = %d, want 4", got)
	}
	if got := reg.Gauge(obs.FoldLabels("cluster.backend.breaker", []string{"1"})).Value(); got != float64(1) {
		t.Fatalf("breaker gauge = %v, want 1 (open)", got)
	}
	_, statsBody := getBody(t, front.URL+"/stats")
	var sb StatsBody
	if err := json.Unmarshal(statsBody, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.Shards[1].Breaker != "open" || sb.Shards[1].Failures != int(downHits) || sb.Shards[1].Opens != 1 {
		t.Fatalf("/stats shard 1 = %+v, want open / 3 failures / 1 open-transition", sb.Shards[1])
	}
	if len(sb.MissingShards) != 1 || sb.MissingShards[0] != 1 {
		t.Fatalf("/stats missing = %v, want [1]", sb.MissingShards)
	}

	// /readyz: ready but degraded with one shard down (probes bypass the
	// breaker, so this touches the dead shard once).
	resp, body = getBody(t, front.URL+"/readyz")
	var rb ReadyBody
	if err := json.Unmarshal(body, &rb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !rb.Ready || !rb.Degraded {
		t.Fatalf("/readyz with one dead shard: status %d body %+v", resp.StatusCode, rb)
	}

	// ---- 5. checkpoint + WAL-replay rejoin, byte-identical reconvergence ----
	// The restored process opens the same WAL dir (same stamp), restores the
	// mid-ingest checkpoint, and replays the suffix: every record acked after
	// the checkpoint comes back. Without the replay the baseline comparison
	// below would fail — the second half of shard 1's feed is nowhere else.
	wlog2, err := wal.Open(walDir, wal.Options{SegmentBytes: 4096, Stamp: "chaos shard=1/2"})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog2.Close()
	restored, err := NewShard(p, 1, testAttrs(), stream.Options{Threshold: 0.5, MinRecordsBetweenChecks: 1, WAL: wlog2})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	replayed, err := restored.ReplayWAL()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(shard1Recs) - half; replayed != want {
		t.Fatalf("replayed %d records, want the %d acked after the checkpoint", replayed, want)
	}
	if st := restored.Stats(); st.WALSeq != uint64(len(shard1Recs)) || st.Accepted != len(shard1Recs) {
		t.Fatalf("zero acked-record loss violated: WALSeq=%d Accepted=%d, want both %d",
			st.WALSeq, st.Accepted, len(shard1Recs))
	}
	srv, err := server.New(server.Config{Source: restored})
	if err != nil {
		t.Fatal(err)
	}
	shards[1].revive(srv.Handler())

	// The open breaker refuses until its (jittered, capped) backoff deadline
	// passes; advance the injected clock far beyond the 1s cap and the next
	// fetch is the half-open probe.
	clock.Advance(10 * time.Second)
	resp, body = getBody(t, front.URL+"/view")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Warning") != "" {
		t.Fatalf("rejoined: status %d warning %q: %s", resp.StatusCode, resp.Header.Get("Warning"), body)
	}
	var rejoined ViewBody
	if err := json.Unmarshal(body, &rejoined); err != nil {
		t.Fatal(err)
	}
	if rejoined.Degraded || len(rejoined.MissingShards) != 0 {
		t.Fatalf("rejoined view still degraded: %+v", rejoined)
	}
	rejoinedGroups, _ := json.Marshal(rejoined.CellGroups)
	if !bytes.Equal(rejoinedGroups, baselineGroups) {
		t.Fatalf("rejoin did not reconverge byte-identically:\nbaseline: %s\nrejoined: %s", baselineGroups, rejoinedGroups)
	}
	if rejoined.IFL != baseline.IFL || rejoined.Groups != baseline.Groups || rejoined.ValidGroups != baseline.ValidGroups {
		t.Fatalf("rejoin summary drifted: ifl %v→%v groups %d→%d", baseline.IFL, rejoined.IFL, baseline.Groups, rejoined.Groups)
	}
	// The restored shard serves its view under the baseline's generation, so
	// the whole body reconverges, stitched and then stored.
	if !bytes.Equal(body, baselineBody) {
		t.Fatalf("rejoined body differs from the baseline:\ngot  %s\nwant %s", body, baselineBody)
	}
	expectViewReads("rejoined", 1, 7)
	if _, body = getBody(t, front.URL+"/view"); !bytes.Equal(body, baselineBody) {
		t.Fatalf("stored read after the rejoin differs from the baseline:\ngot  %s\nwant %s", body, baselineBody)
	}
	expectViewReads("stored after the rejoin", 2, 7)
	if got := shards[1].requests.Load(); got <= preKillRequests+downHits {
		t.Fatal("restored shard never served a request")
	}
	// The half-open probe's success closed the breaker again.
	if got := reg.Gauge(obs.FoldLabels("cluster.backend.breaker", []string{"1"})).Value(); got != 0 {
		t.Fatalf("breaker gauge after rejoin = %v, want 0 (closed)", got)
	}
}

// TestChaosInjectedFetchFaultsReconcile drives the cluster.fetch fault point
// with an exact-count plan and reconciles injector hits against breaker and
// counter state: K injected failures → K recorded failures and K retries,
// and the client never sees an error.
func TestChaosInjectedFetchFaultsReconcile(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	recs := testRecords(rng, testBounds(), 200)
	clock := newFakeClock()
	obsv := obs.New()
	inj := fault.New(1)
	inj.Set("cluster.fetch", fault.Plan{Count: 2, Err: errors.New("injected shard fault")})

	tc := startCluster(t, 6, 6, 1, recs, func(cfg *Config) {
		cfg.Clock = clock
		cfg.Obs = obsv
		cfg.Fault = inj
		cfg.RetryMax = 2
		cfg.FailureThreshold = 3
	}, nil)

	resp, body := getBody(t, tc.front.URL+"/view")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Warning") != "" {
		t.Fatalf("retries should have absorbed 2 injected faults: status %d warning %q",
			resp.StatusCode, resp.Header.Get("Warning"))
	}
	var cv ViewBody
	if err := json.Unmarshal(body, &cv); err != nil {
		t.Fatal(err)
	}
	if cv.Degraded || len(cv.MissingShards) != 0 {
		t.Fatalf("view degraded despite successful retry: %+v", cv)
	}

	hits, fired := inj.Stats("cluster.fetch")
	if hits != 3 || fired != 2 {
		t.Fatalf("injector hits=%d fired=%d, want 3/2 (two faults + the succeeding attempt)", hits, fired)
	}
	reg := obsv.Registry()
	if got := reg.Counter(obs.FoldLabels("cluster.backend.failures", []string{"0"})).Value(); got != fired {
		t.Fatalf("cluster.backend.failures|0 = %d, injector fired %d", got, fired)
	}
	if got := reg.Counter(obs.FoldLabels("cluster.backend.retries", []string{"0"})).Value(); got != 2 {
		t.Fatalf("cluster.backend.retries|0 = %d, want 2", got)
	}
	if got := reg.Gauge(obs.FoldLabels("cluster.backend.breaker", []string{"0"})).Value(); got != 0 {
		t.Fatalf("breaker gauge = %v, want 0 (closed; the streak never reached the threshold)", got)
	}
}

// TestChaosAllShardsDown: a fully dark cluster is the one case that turns
// into 503s — /view refuses with not_ready and /readyz flips not-ready.
func TestChaosAllShardsDown(t *testing.T) {
	p, err := NewPlan(4, 4, testBounds(), 2)
	if err != nil {
		t.Fatal(err)
	}
	dead := []*killableShard{newKillableShard(http.NotFoundHandler()), newKillableShard(http.NotFoundHandler())}
	for _, d := range dead {
		d.kill()
		defer d.Close()
	}
	clock := newFakeClock()
	coord, err := New(Config{
		Plan: p, Backends: []string{dead[0].ts.URL, dead[1].ts.URL},
		Clock: clock, RetryMax: 1, FailureThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, coord)
	front := httptest.NewServer(coord.Handler())
	defer front.Close()

	resp, body := getBody(t, front.URL+"/view")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/view with all shards down: status %d: %s", resp.StatusCode, body)
	}
	var eb struct {
		Code string `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || eb.Code != "not_ready" {
		t.Fatalf("/view error body %s (parse err %v), want not_ready", body, err)
	}

	resp, body = getBody(t, front.URL+"/readyz")
	var rb ReadyBody
	if err := json.Unmarshal(body, &rb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || rb.Ready || rb.Reason != "no shard ready" {
		t.Fatalf("/readyz with all shards down: status %d body %+v", resp.StatusCode, rb)
	}
}

// trapClock is a fake clock whose After fires only once the backend has
// stalled a request, so a hedge launches strictly after its primary reached
// the backend: the stalled leg is always the primary. After is reached only
// by the hedge timer here (no queueing, no retry).
type trapClock struct {
	*fakeClock
	trapped chan time.Time
}

func (c trapClock) After(time.Duration) <-chan time.Time { return c.trapped }

// TestChaosHedgedRequestWins: once the latency ring is primed, a stalled
// primary request is raced by a hedge after the p99 delay, and the hedge's
// answer serves the response — no retry, no recorded failure, no
// client-visible stall.
func TestChaosHedgedRequestWins(t *testing.T) {
	p, err := NewPlan(4, 4, testBounds(), 1)
	if err != nil {
		t.Fatal(err)
	}
	viewJSON := `{"generation":1,"degraded":false,"rows":4,"cols":4,"groups":1,"valid_groups":1,"ifl":0.25,` +
		`"cell_groups":[{"id":0,"row_begin":0,"row_end":3,"col_begin":0,"col_end":3,"cells":16,"features":[1]}]}`
	clock := trapClock{fakeClock: newFakeClock(), trapped: make(chan time.Time, 1)}
	var hangNext atomic.Bool
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hangNext.CompareAndSwap(true, false) {
			// Release the hedge, then stall until the coordinator abandons
			// this leg (the hedge won and the attempt context was
			// cancelled).
			clock.trapped <- clock.Now()
			<-r.Context().Done()
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, viewJSON+"\n")
	}))
	defer backend.Close()

	obsv := obs.New()
	coord, err := New(Config{
		Plan: p, Backends: []string{backend.URL},
		Clock: clock, Obs: obsv,
		Hedge: true, HedgeMinSamples: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, coord)
	front := httptest.NewServer(coord.Handler())
	defer front.Close()

	// Prime the latency ring past HedgeMinSamples.
	for i := 0; i < 3; i++ {
		resp, _ := getBody(t, front.URL+"/view")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("prime %d: status %d", i, resp.StatusCode)
		}
	}
	hangNext.Store(true)
	resp, body := getBody(t, front.URL+"/view")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stalled round: status %d: %s", resp.StatusCode, body)
	}
	reg := obsv.Registry()
	if got := reg.Counter(obs.FoldLabels("cluster.backend.hedges", []string{"0"})).Value(); got != 1 {
		t.Fatalf("hedges = %d, want 1", got)
	}
	if got := reg.Counter(obs.FoldLabels("cluster.backend.hedge_wins", []string{"0"})).Value(); got != 1 {
		t.Fatalf("hedge_wins = %d, want 1: the stalled primary answered", got)
	}
	if got := reg.Counter(obs.FoldLabels("cluster.backend.failures", []string{"0"})).Value(); got != 0 {
		t.Fatalf("hedged stall recorded %d failures, want 0", got)
	}
}

// TestChaosRequestFaultPoint: an injected fault at cluster.request surfaces
// as a clean taxonomy error on that one request and nothing else.
func TestChaosRequestFaultPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inj := fault.New(2)
	inj.Set("cluster.request", fault.Plan{Count: 1, Err: server.ErrInternal.WithDetail("injected")})
	tc := startCluster(t, 4, 4, 1, testRecords(rng, testBounds(), 60), func(cfg *Config) {
		cfg.Fault = inj
	}, nil)

	resp, body := getBody(t, tc.front.URL+"/view")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted request: status %d: %s", resp.StatusCode, body)
	}
	resp, _ = getBody(t, tc.front.URL+"/view")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the fault window: status %d", resp.StatusCode)
	}
	if hits, fired := inj.Stats("cluster.request"); fired != 1 || hits != 2 {
		t.Fatalf("injector hits=%d fired=%d, want 2/1", hits, fired)
	}
}
