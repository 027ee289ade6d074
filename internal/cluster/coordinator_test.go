package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
	"spatialrepart/internal/server"
	"spatialrepart/internal/stream"
	"spatialrepart/internal/testutil"
)

func TestMain(m *testing.M) { testutil.VerifyNoLeaks(m) }

func testAttrs() []grid.Attribute {
	return []grid.Attribute{{Name: "v", Agg: grid.Average}, {Name: "n", Agg: grid.Sum, Integer: true}}
}

func testRecords(rng *rand.Rand, b grid.Bounds, n int) []grid.Record {
	recs := make([]grid.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, grid.Record{
			Lat:    b.MinLat + rng.Float64()*(b.MaxLat-b.MinLat),
			Lon:    b.MinLon + rng.Float64()*(b.MaxLon-b.MinLon),
			Values: []float64{rng.NormFloat64(), float64(rng.Intn(5))},
		})
	}
	return recs
}

// testCluster is a full in-process cluster: plan, shard streams, shard HTTP
// servers, and a coordinator mounted on httptest.
type testCluster struct {
	plan    Plan
	streams []*stream.Repartitioner
	shards  []*httptest.Server
	coord   *Coordinator
	front   *httptest.Server
}

// startCluster ingests recs into `shards` shard streams (routed via the
// plan) and mounts the whole cluster. mutate lets a test wrap shard handlers
// (nil = plain shard servers).
func startCluster(t *testing.T, rows, cols, shards int, recs []grid.Record,
	cfgTweak func(*Config), wrap func(i int, h http.Handler) http.Handler) *testCluster {
	t.Helper()
	p, err := NewPlan(rows, cols, testBounds(), shards)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{plan: p}
	backends := make([]string, shards)
	for i := 0; i < shards; i++ {
		s, err := NewShard(p, i, testAttrs(), stream.Options{Threshold: 0.5, MinRecordsBetweenChecks: 1})
		if err != nil {
			t.Fatal(err)
		}
		tc.streams = append(tc.streams, s)
		srv, err := server.New(server.Config{Source: s})
		if err != nil {
			t.Fatal(err)
		}
		h := http.Handler(srv.Handler())
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		tc.shards = append(tc.shards, ts)
		backends[i] = ts.URL
	}
	for _, rec := range recs {
		shard, local, ok := p.Route(rec)
		if !ok {
			continue
		}
		if err := tc.streams[shard].Add(local); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Plan: p, Backends: backends}
	if cfgTweak != nil {
		cfgTweak(&cfg)
	}
	tc.coord, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.front = httptest.NewServer(tc.coord.Handler())
	t.Cleanup(tc.close)
	return tc
}

func (tc *testCluster) close() {
	if tc.front != nil {
		tc.front.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tc.coord.Shutdown(ctx)
	for _, s := range tc.shards {
		s.Close()
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestSingleShardViewMatchesUnshardedServer is the N=1 anchor of the
// byte-identity property: a one-shard cluster's stitched cell-groups are the
// EXACT bytes the plain unsharded server emits for the same records, and the
// summary fields agree.
func TestSingleShardViewMatchesUnshardedServer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := testRecords(rng, testBounds(), 600)

	tc := startCluster(t, 8, 8, 1, recs, nil, nil)
	resp, clusterBody := getBody(t, tc.front.URL+"/view")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Warning") != "" {
		t.Fatalf("healthy cluster /view: status %d warning %q", resp.StatusCode, resp.Header.Get("Warning"))
	}

	// The unsharded reference: same records, one stream over the full grid.
	ref, err := stream.New(testBounds(), 8, 8, testAttrs(), stream.Options{Threshold: 0.5, MinRecordsBetweenChecks: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := ref.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	refSrv, err := server.New(server.Config{Source: ref})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(refSrv.Handler())
	defer refTS.Close()
	_, refBody := getBody(t, refTS.URL+"/view")

	var cv ViewBody
	var sv server.ViewBody
	if err := json.Unmarshal(clusterBody, &cv); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(refBody, &sv); err != nil {
		t.Fatal(err)
	}
	if cv.Degraded || len(cv.MissingShards) != 0 {
		t.Fatalf("healthy cluster degraded=%t missing=%v", cv.Degraded, cv.MissingShards)
	}
	if cv.Rows != sv.Rows || cv.Cols != sv.Cols || cv.Groups != sv.Groups ||
		cv.ValidGroups != sv.ValidGroups || cv.IFL != sv.IFL {
		t.Fatalf("summary mismatch: cluster %+v vs server rows=%d cols=%d groups=%d valid=%d ifl=%v",
			cv, sv.Rows, sv.Cols, sv.Groups, sv.ValidGroups, sv.IFL)
	}
	cg, _ := json.Marshal(cv.CellGroups)
	sg, _ := json.Marshal(sv.CellGroups)
	if !bytes.Equal(cg, sg) {
		t.Fatalf("cell-group bytes differ:\ncluster: %s\nserver:  %s", cg, sg)
	}
}

// TestStitchedViewMatchesInProcessReference: for N∈{1,2,4}, the coordinator's
// HTTP /view is byte-identical to ViewFromStreams over the same shard
// streams — the full wire body, not just the groups.
func TestStitchedViewMatchesInProcessReference(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + shards)))
			recs := testRecords(rng, testBounds(), 800)
			tc := startCluster(t, 12, 6, shards, recs, nil, nil)

			// Warm every shard so the reference call below cannot trigger a
			// fresh recompute between the two observations.
			for _, s := range tc.streams {
				if _, err := s.Current(); err != nil {
					t.Fatal(err)
				}
			}
			resp, httpBody := getBody(t, tc.front.URL+"/view")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/view status %d: %s", resp.StatusCode, httpBody)
			}
			ref, err := ViewFromStreams(tc.plan, tc.streams)
			if err != nil {
				t.Fatal(err)
			}
			var refBuf bytes.Buffer
			if err := json.NewEncoder(&refBuf).Encode(ref); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(httpBody, refBuf.Bytes()) {
				t.Fatalf("HTTP view != in-process reference:\nhttp: %s\nref:  %s", httpBody, refBuf.Bytes())
			}
		})
	}
}

// TestCellAndGroupRouting: point queries are routed to the owning shard and
// translated back into the global frame, agreeing with the stitched view.
func TestCellAndGroupRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	recs := testRecords(rng, testBounds(), 500)
	tc := startCluster(t, 10, 5, 2, recs, nil, nil)

	_, viewBody := getBody(t, tc.front.URL+"/view")
	var cv ViewBody
	if err := json.Unmarshal(viewBody, &cv); err != nil {
		t.Fatal(err)
	}
	groupAt := func(row, col int) server.GroupBody {
		for _, g := range cv.CellGroups {
			if row >= g.RowBegin && row <= g.RowEnd && col >= g.ColBegin && col <= g.ColEnd {
				return g
			}
		}
		t.Fatalf("no stitched group covers (%d,%d)", row, col)
		return server.GroupBody{}
	}
	for _, cell := range [][2]int{{0, 0}, {4, 4}, {5, 0}, {9, 4}} {
		row, col := cell[0], cell[1]
		resp, body := getBody(t, fmt.Sprintf("%s/cell?row=%d&col=%d", tc.front.URL, row, col))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/cell(%d,%d) status %d: %s", row, col, resp.StatusCode, body)
		}
		var cb CellBody
		if err := json.Unmarshal(body, &cb); err != nil {
			t.Fatal(err)
		}
		if cb.Row != row || cb.Col != col || cb.Shard != tc.plan.ShardFor(row) {
			t.Fatalf("/cell(%d,%d) = %+v", row, col, cb)
		}
		want := groupAt(row, col)
		if cb.Group.RowBegin != want.RowBegin || cb.Group.RowEnd != want.RowEnd ||
			cb.Group.ColBegin != want.ColBegin || cb.Group.ColEnd != want.ColEnd ||
			cb.Group.Null != want.Null {
			t.Fatalf("/cell(%d,%d) group %+v, stitched view has %+v", row, col, cb.Group, want)
		}

		resp, body = getBody(t, fmt.Sprintf("%s/group?row=%d&col=%d", tc.front.URL, row, col))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/group(%d,%d) status %d: %s", row, col, resp.StatusCode, body)
		}
		var gb GroupQueryBody
		if err := json.Unmarshal(body, &gb); err != nil {
			t.Fatal(err)
		}
		if gb.Group.RowBegin != want.RowBegin || gb.Group.RowEnd != want.RowEnd {
			t.Fatalf("/group(%d,%d) = %+v, want extent of %+v", row, col, gb.Group, want)
		}
	}

	// Bad and out-of-grid coordinates are rejected by the coordinator
	// itself, without consulting any shard.
	for url, wantStatus := range map[string]int{
		"/cell?row=abc&col=0": http.StatusBadRequest,
		"/cell?row=10&col=0":  http.StatusNotFound,
		"/cell?row=0&col=-1":  http.StatusNotFound,
		"/group?row=0&col=99": http.StatusNotFound,
	} {
		resp, body := getBody(t, tc.front.URL+url)
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s status %d (want %d): %s", url, resp.StatusCode, wantStatus, body)
		}
	}
}

// TestShardErrorPassthrough: a shard's 4xx taxonomy answer is relayed
// verbatim — status, body and Retry-After hint — so clients see the shard's
// own error codes.
func TestShardErrorPassthrough(t *testing.T) {
	p, err := NewPlan(4, 4, testBounds(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, answer := range []struct {
		status     int
		body       string
		retryAfter string
	}{
		{http.StatusNotFound, `{"error":"not_found","detail":"synthetic"}` + "\n", ""},
		{http.StatusTooManyRequests, `{"error":"rate_limited","detail":"synthetic"}` + "\n", "3"},
	} {
		backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if answer.retryAfter != "" {
				w.Header().Set("Retry-After", answer.retryAfter)
			}
			w.WriteHeader(answer.status)
			io.WriteString(w, answer.body)
		}))
		defer backend.Close()
		c, err := New(Config{Plan: p, Backends: []string{backend.URL}})
		if err != nil {
			t.Fatal(err)
		}
		defer shutdownCoordinator(t, c)
		front := httptest.NewServer(c.Handler())
		defer front.Close()

		resp, body := getBody(t, front.URL+"/cell?row=1&col=1")
		if resp.StatusCode != answer.status || string(body) != answer.body || resp.Header.Get("Retry-After") != answer.retryAfter {
			t.Fatalf("passthrough: status %d body %q Retry-After %q, want %d %q %q", resp.StatusCode, body,
				resp.Header.Get("Retry-After"), answer.status, answer.body, answer.retryAfter)
		}
	}
}

// TestDegradedShardWarningOnPointReads: a point read answered by a degraded
// shard carries the shard's Warning: 110 through the coordinator; one
// answered by a healthy shard carries none.
func TestDegradedShardWarningOnPointReads(t *testing.T) {
	const warning = `110 - "serving last-good degraded view"`
	rng := rand.New(rand.NewSource(19))
	tc := startCluster(t, 10, 5, 2, testRecords(rng, testBounds(), 400), nil, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		// The header a stock shard sends while it serves its last-good view.
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Warning", warning)
			h.ServeHTTP(w, r)
		})
	})
	for _, route := range []string{"/cell", "/group"} {
		for row, want := range map[int]string{0: "", 9: warning} {
			resp, body := getBody(t, fmt.Sprintf("%s%s?row=%d&col=2", tc.front.URL, route, row))
			if resp.StatusCode != http.StatusOK || resp.Header.Get("Warning") != want {
				t.Fatalf("%s row %d: status %d Warning %q, want 200 %q: %s",
					route, row, resp.StatusCode, resp.Header.Get("Warning"), want, body)
			}
		}
	}
}

// TestEnvelopeErrorAfterStartedResponse: the coordinator's routes run on the
// shared request envelope, so a handler that fails after starting its
// response adds nothing to it, and the envelope's series carry cluster.*
// names.
func TestEnvelopeErrorAfterStartedResponse(t *testing.T) {
	p, err := NewPlan(4, 4, testBounds(), 1)
	if err != nil {
		t.Fatal(err)
	}
	obsv := obs.New()
	c, err := New(Config{Plan: p, Backends: []string{"http://127.0.0.1:1"}, Obs: obsv})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c)
	c.Query("/partial", func(w http.ResponseWriter, _ *http.Request) error {
		io.WriteString(w, "partial")
		return errors.New("failed after the response started")
	})
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/partial", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "partial" {
		t.Fatalf("status %d body %q, want 200 %q", rec.Code, rec.Body.String(), "partial")
	}
	reg := obsv.Registry()
	if got := reg.Counter("cluster.admitted").Value(); got != 1 {
		t.Fatalf("cluster.admitted = %d, want 1", got)
	}
	if got := reg.Counter(obs.FoldLabels("cluster.http.requests", []string{"/partial", "200"})).Value(); got != 1 {
		t.Fatalf("cluster.http.requests|/partial|200 = %d, want 1", got)
	}
}

// TestShardBodyCap: a backend's body cap grows with its band. A valid /view
// padded past the old fixed 16 MiB but within the cap is served whole; one
// byte more is an explicit payload error naming the shard and the cap, the
// shard goes missing, and the breaker does not count it.
func TestShardBodyCap(t *testing.T) {
	p, err := NewPlan(64, 64, testBounds(), 1)
	if err != nil {
		t.Fatal(err)
	}
	limit := int64(shardBodyFloor + shardBodyPerCell*64*64)
	view := `{"generation":1,"degraded":false,"rows":64,"cols":64,"groups":1,"valid_groups":1,"ifl":0.5,` +
		`"cell_groups":[{"id":0,"row_begin":0,"row_end":63,"col_begin":0,"col_end":63,"cells":4096,"features":[1]}]}`
	var size atomic.Int64
	// The padding leads, so a body cut short anywhere is no valid JSON.
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		pad := bytes.Repeat([]byte(" "), 1<<16)
		for left := size.Load() - int64(len(view)); left > 0; left -= int64(len(pad)) {
			if _, err := w.Write(pad[:min(left, int64(len(pad)))]); err != nil {
				return // the coordinator stopped reading at its cap
			}
		}
		io.WriteString(w, view)
	}))
	defer backend.Close()
	obsv := obs.New()
	c, err := New(Config{Plan: p, Backends: []string{backend.URL}, Obs: obsv})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownCoordinator(t, c)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	size.Store(limit)
	if limit <= 16<<20 {
		t.Fatalf("cap %d does not exceed the old fixed 16 MiB", limit)
	}
	resp, body := getBody(t, front.URL+"/view")
	var cv ViewBody
	if err := json.Unmarshal(body, &cv); err != nil || resp.StatusCode != http.StatusOK || cv.Groups != 1 {
		t.Fatalf("body at the cap: status %d groups %d (%v): %.200s", resp.StatusCode, cv.Groups, err, body)
	}

	size.Store(limit + 1)
	resp, body = getBody(t, front.URL+"/view")
	var eb struct {
		Detail string `json:"detail"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("body past the cap: status %d (%v): %.200s", resp.StatusCode, err, body)
	}
	if want := fmt.Sprintf("shard 0 answered more than %d bytes, above its %d-byte body cap", limit, limit); !contains(eb.Detail, want) {
		t.Fatalf("detail %q does not say %q", eb.Detail, want)
	}
	reg := obsv.Registry()
	if got := reg.Counter(obs.FoldLabels("cluster.backend.failures", []string{"0"})).Value(); got != 0 {
		t.Fatalf("oversized answer counted as %d breaker failures", got)
	}
	if got := reg.Counter(obs.FoldLabels("cluster.backend.success", []string{"0"})).Value(); got != 2 {
		t.Fatalf("cluster.backend.success|0 = %d, want 2 (both answers reached the coordinator)", got)
	}
}

// TestTraceparentPropagation: the coordinator adopts an inbound traceparent,
// echoes it on the response, and forwards the same trace ID to the shards.
func TestTraceparentPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := testRecords(rng, testBounds(), 100)
	var shardSaw []string
	tc := startCluster(t, 4, 4, 1, recs, nil, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			shardSaw = append(shardSaw, r.Header.Get("traceparent"))
			h.ServeHTTP(w, r)
		})
	})

	const inbound = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	req, err := http.NewRequest(http.MethodGet, tc.front.URL+"/view", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", inbound)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	const traceID = "0123456789abcdef0123456789abcdef"
	if echoed := resp.Header.Get("traceparent"); !contains(echoed, traceID) {
		t.Fatalf("response traceparent %q does not carry inbound trace %s", echoed, traceID)
	}
	if len(shardSaw) == 0 {
		t.Fatal("shard never saw a request")
	}
	for _, tp := range shardSaw {
		if !contains(tp, traceID) {
			t.Fatalf("shard saw traceparent %q, want trace %s", tp, traceID)
		}
	}
}

// TestDrainingCoordinator: after Shutdown begins, new queries shed 503
// draining with a jittered Retry-After, and /readyz flips not-ready.
func TestDrainingCoordinator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tc := startCluster(t, 4, 4, 1, testRecords(rng, testBounds(), 50), func(cfg *Config) {
		cfg.RetryAfter = 4 * time.Second
	}, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tc.coord.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	tc.coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/view", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /view status %d, want 503", rec.Code)
	}
	ra := rec.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("draining shed carries no Retry-After")
	}
	var secs int
	fmt.Sscanf(ra, "%d", &secs)
	if secs < 2 || secs > 4 {
		t.Fatalf("Retry-After %q outside the jittered [2,4] band for RetryAfter=4s", ra)
	}

	rec = httptest.NewRecorder()
	tc.coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz status %d, want 503", rec.Code)
	}
}

func shutdownCoordinator(t *testing.T, c *Coordinator) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Errorf("coordinator shutdown: %v", err)
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }
