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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialrepart/internal/core"
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
// streams — the full wire body, not just the groups — whether it was
// stitched or served stored. The second read of an unchanged cluster is
// served stored after every shard answered 304; after an Add moves one
// shard's view, the next read is stitched afresh, the changed shard
// answering its conditional request with the new body and the others with
// 304 and then, asked once more without a tag, with theirs; the read after
// that is stored again. Concurrent reads racing to re-stitch and store
// after another Add all get the new reference bytes.
func TestStitchedViewMatchesInProcessReference(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + shards)))
			recs := testRecords(rng, testBounds(), 800)
			log := newAnswerLog(shards)
			obsv := obs.New()
			tc := startCluster(t, 12, 6, shards, recs, func(cfg *Config) { cfg.Obs = obsv }, log.wrap)

			// reference warms every shard, so no read can trigger a fresh
			// recompute, and returns ViewFromStreams as the coordinator
			// encodes it.
			reference := func() []byte {
				t.Helper()
				for _, s := range tc.streams {
					if _, err := s.Current(); err != nil {
						t.Fatal(err)
					}
				}
				ref, err := ViewFromStreams(tc.plan, tc.streams)
				if err != nil {
					t.Fatal(err)
				}
				var refBuf bytes.Buffer
				if err := json.NewEncoder(&refBuf).Encode(ref); err != nil {
					t.Fatal(err)
				}
				return refBuf.Bytes()
			}
			// read reads /view, checks it against the reference, and
			// returns the body and each shard's answers.
			read := func(label string) ([]byte, [][]answer) {
				t.Helper()
				want := reference()
				log.take()
				resp, httpBody := getBody(t, tc.front.URL+"/view")
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: /view status %d: %s", label, resp.StatusCode, httpBody)
				}
				if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(httpBody)) {
					t.Fatalf("%s: Content-Length %q for a %d-byte body", label, got, len(httpBody))
				}
				if !bytes.Equal(httpBody, want) {
					t.Fatalf("%s: HTTP view != in-process reference:\nhttp: %s\nref:  %s", label, httpBody, want)
				}
				return httpBody, log.take()
			}
			// addTo gives a shard its next generation: one record in the
			// middle of its band.
			addTo := func(shard int) {
				t.Helper()
				b := tc.plan.Bands[shard].Bounds
				rec := grid.Record{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2, Values: []float64{1, 1}}
				if err := tc.streams[shard].Add(rec); err != nil {
					t.Fatal(err)
				}
			}
			expect := func(label string, answers [][]answer, want func(shard int) []int, stored, stitched int64) {
				t.Helper()
				for i, got := range answers {
					var statuses []int
					for _, a := range got {
						statuses = append(statuses, a.status)
						if a.status == http.StatusNotModified && a.bytes != 0 {
							t.Fatalf("%s: shard %d answered 304 with %d body bytes", label, i, a.bytes)
						}
					}
					if w := want(i); fmt.Sprint(statuses) != fmt.Sprint(w) {
						t.Fatalf("%s: shard %d answered %v, want %v", label, i, statuses, w)
					}
				}
				reg := obsv.Registry()
				if got := reg.Counter("cluster.view.stored").Value(); got != stored {
					t.Fatalf("%s: cluster.view.stored = %d, want %d", label, got, stored)
				}
				if got := reg.Counter("cluster.view.stitched").Value(); got != stitched {
					t.Fatalf("%s: cluster.view.stitched = %d, want %d", label, got, stitched)
				}
			}
			every := func(statuses ...int) func(int) []int { return func(int) []int { return statuses } }

			first, answers := read("first read")
			expect("first read", answers, every(http.StatusOK), 0, 1)
			second, answers := read("second read")
			if !bytes.Equal(second, first) {
				t.Fatal("the stored read differs from the stitched one")
			}
			expect("second read", answers, every(http.StatusNotModified), 1, 1)

			addTo(0)
			third, answers := read("after an Add")
			if bytes.Equal(third, second) {
				t.Fatal("the view did not change after an Add")
			}
			expect("after an Add", answers, func(i int) []int {
				if i == 0 {
					return []int{http.StatusOK}
				}
				return []int{http.StatusNotModified, http.StatusOK}
			}, 1, 2)
			fourth, answers := read("stored after the Add")
			if !bytes.Equal(fourth, third) {
				t.Fatal("the stored read differs from the stitched one after the Add")
			}
			expect("stored after the Add", answers, every(http.StatusNotModified), 2, 2)

			// Eight concurrent reads after an Add to the last shard race to
			// stitch and store; each gets the new reference bytes.
			addTo(shards - 1)
			want := reference()
			bodies := make([][]byte, 8)
			var wg sync.WaitGroup
			for i := range bodies {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, err := http.Get(tc.front.URL + "/view")
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					if bodies[i], err = io.ReadAll(resp.Body); err != nil {
						t.Error(err)
					}
				}(i)
			}
			wg.Wait()
			for i, body := range bodies {
				if !bytes.Equal(body, want) {
					t.Fatalf("concurrent read %d != in-process reference:\nhttp: %s\nref:  %s", i, body, want)
				}
			}
			reg := obsv.Registry()
			if got := reg.Counter("cluster.view.stored").Value() + reg.Counter("cluster.view.stitched").Value(); got != 4+8 {
				t.Fatalf("%d /view reads counted, want 12", got)
			}
		})
	}
}

// TestStoredViewReadAllocs: a stored /view read of an unchanged two-shard
// cluster fetches no shard body bytes, and its allocations — coordinator
// and shards run in one process, the shards over an in-process transport —
// do not grow with the partition, in the manner of the server's
// TestViewReadAllocs. Each read starts goroutines, and under the race
// detector goroutine starts allocate a varying few (145 allocations per read
// without it, 146 to 148 with it), so the 16² and 128² counts may differ by
// up to 3; a read that re-stitched allocates 620 times at 16² and 21,506
// times at 128².
func TestStoredViewReadAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		p, err := NewPlan(n, n, testBounds(), 2)
		if err != nil {
			t.Fatal(err)
		}
		log := newAnswerLog(2)
		transport := handlerTransport{}
		var backends []string
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range p.Bands {
			s, err := NewShard(p, i, testAttrs(), stream.Options{Threshold: 0.5, Schedule: core.ScheduleGeometric})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range testRecords(rng, p.Bands[i].Bounds, n*n) {
				if err := s.Add(rec); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Current(); err != nil { // repartition before any deadline runs
				t.Fatal(err)
			}
			srv, err := server.New(server.Config{Source: s})
			if err != nil {
				t.Fatal(err)
			}
			host := fmt.Sprintf("shard%d", i)
			transport[host] = log.wrap(i, srv.Handler())
			backends = append(backends, "http://"+host)
		}
		c, err := New(Config{Plan: p, Backends: backends, Client: &http.Client{Transport: transport}})
		if err != nil {
			t.Fatal(err)
		}
		defer shutdownCoordinator(t, c)
		h := c.Handler()
		read := func() {
			w := &sinkWriter{header: http.Header{}}
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/view", nil))
			if w.status != http.StatusOK || w.header.Get("Content-Length") != strconv.Itoa(w.n) {
				t.Fatalf("%d²: /view = %d with Content-Length %q for %d bytes", n, w.status, w.header.Get("Content-Length"), w.n)
			}
		}
		read() // stitches and stores
		read() // the shards encode their bodies' tags on the first read; serve stored from here
		log.take()
		a := testing.AllocsPerRun(20, read)
		for i, answers := range log.take() {
			if len(answers) != 21 { // AllocsPerRun's warm-up call, then 20
				t.Fatalf("%d²: shard %d answered %d requests, want 21", n, i, len(answers))
			}
			for _, ans := range answers {
				if ans.status != http.StatusNotModified || ans.bytes != 0 {
					t.Fatalf("%d²: shard %d answered a stored read with %d and %d body bytes", n, i, ans.status, ans.bytes)
				}
			}
		}
		return a
	}
	small, large := allocs(16), allocs(128)
	t.Logf("stored /view: %.0f allocations at 16², %.0f at 128²", small, large)
	if large > small+3 {
		t.Errorf("stored /view allocations grow with the partition: %.0f → %.0f (16² → 128²)", small, large)
	}
}

// answer is one shard response as its handler wrote it.
type answer struct{ status, bytes int }

// answerLog wraps shard handlers and records, per shard, the status and body
// bytes of every /view answer.
type answerLog struct {
	mu      sync.Mutex
	answers [][]answer
}

func newAnswerLog(shards int) *answerLog { return &answerLog{answers: make([][]answer, shards)} }

func (l *answerLog) wrap(i int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		aw := &answerWriter{ResponseWriter: w}
		h.ServeHTTP(aw, r)
		if r.URL.Path == "/view" {
			l.mu.Lock()
			l.answers[i] = append(l.answers[i], aw.a)
			l.mu.Unlock()
		}
	})
}

// take returns the answers recorded since the last take.
func (l *answerLog) take() [][]answer {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.answers
	l.answers = make([][]answer, len(out))
	return out
}

// answerWriter records the status and body bytes a handler writes.
type answerWriter struct {
	http.ResponseWriter
	a answer
}

func (w *answerWriter) WriteHeader(status int) {
	if w.a.status == 0 {
		w.a.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *answerWriter) Write(b []byte) (int, error) {
	if w.a.status == 0 {
		w.a.status = http.StatusOK
	}
	w.a.bytes += len(b)
	return w.ResponseWriter.Write(b)
}

// handlerTransport serves each request in process with the handler of its
// URL's host, so an allocation count sees no network.
type handlerTransport map[string]http.Handler

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t[r.URL.Host].ServeHTTP(rec, r)
	return rec.Result(), nil
}

// sinkWriter is a ResponseWriter that counts the body bytes instead of
// keeping them.
type sinkWriter struct {
	header http.Header
	status int
	n      int
}

func (w *sinkWriter) Header() http.Header { return w.header }

func (w *sinkWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *sinkWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(b)
	return len(b), nil
}

// TestStoredDegradedViewWarns: a view stitched from a shard that serves a
// degraded body, and no missing shard, is stored like any other, and a read
// served from it carries the Warning: 110 and degraded=true of the read
// that stitched it.
func TestStoredDegradedViewWarns(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	obsv := obs.New()
	tc := startCluster(t, 10, 5, 2, testRecords(rng, testBounds(), 400), func(cfg *Config) {
		cfg.Obs = obsv
	}, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		// Shard 1 serves its view flagged degraded, as a stream serves its
		// last-good view, through the stored-body helper: with an ETag,
		// answering If-None-Match.
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/view" {
				h.ServeHTTP(w, r)
				return
			}
			inner := r.Clone(r.Context())
			inner.Header.Del("If-None-Match")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, inner)
			var v server.ViewBody
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
				t.Errorf("shard 1 view: %v", err)
				return
			}
			v.Degraded = true
			body, err := server.EncodeBody(v)
			if err != nil {
				t.Error(err)
				return
			}
			w.Header().Set("Warning", `110 - "serving last-good degraded view"`)
			body.Write(w, r)
		})
	})
	var first []byte
	for read := 0; read < 2; read++ { // stitched, then stored
		resp, body := getBody(t, tc.front.URL+"/view")
		var cv ViewBody
		if err := json.Unmarshal(body, &cv); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Warning"), "110 ") ||
			!cv.Degraded || len(cv.MissingShards) != 0 {
			t.Fatalf("read %d: status %d Warning %q degraded=%t missing=%v, want 200, a 110 Warning, degraded and no shard missing",
				read, resp.StatusCode, resp.Header.Get("Warning"), cv.Degraded, cv.MissingShards)
		}
		if read == 0 {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatal("the stored degraded read differs from the stitched one")
		}
	}
	reg := obsv.Registry()
	if stored, stitched := reg.Counter("cluster.view.stored").Value(), reg.Counter("cluster.view.stitched").Value(); stored != 1 || stitched != 1 {
		t.Fatalf("%d stored and %d stitched reads, want 1 and 1", stored, stitched)
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
	tc := startCluster(t, 4, 4, 1, testRecords(rng, testBounds(), 50), nil, nil)

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
	// The envelope's 1 s hint, jittered into [0.5 s, 1 s), rounds up to 1.
	if ra != "1" {
		t.Fatalf("Retry-After %q, want 1", ra)
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
