package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"spatialrepart/internal/core"
	"spatialrepart/internal/grid"
	"spatialrepart/internal/stream"
)

// projection is what WriteJSON writes for ViewBodyOf(v, groups): the bytes a
// served /view body must equal.
func projection(t *testing.T, v stream.View, groups bool) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	if err := WriteJSON(rec, ViewBodyOf(v, groups)); err != nil {
		t.Fatal(err)
	}
	return rec.Body.Bytes()
}

// viewTarget is the /view request path with or without the group list.
func viewTarget(groups bool) string {
	if groups {
		return "/view"
	}
	return "/view?groups=false"
}

// etagOf is the ETag a stored body must carry: the quoted hex of the first
// 16 bytes of its SHA-256.
func etagOf(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// readView reads /view (or its summary), sending ifNoneMatch in
// If-None-Match when it is non-empty. A 200 must carry a Content-Length equal
// to its body's and the ETag recomputed from its bytes; a 304 must carry an
// ETag and no body.
func readView(t *testing.T, base string, groups bool, ifNoneMatch string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+viewTarget(groups), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", viewTarget(groups), got, len(body))
		}
		if got, want := resp.Header.Get("ETag"), etagOf(body); got != want {
			t.Fatalf("%s: ETag %s, the served bytes hash to %s", viewTarget(groups), got, want)
		}
	case http.StatusNotModified:
		if len(body) != 0 || resp.Header.Get("ETag") == "" {
			t.Fatalf("%s: 304 with ETag %q and a %d-byte body", viewTarget(groups), resp.Header.Get("ETag"), len(body))
		}
	}
	return resp.StatusCode, resp.Header, body
}

// getView reads /view (or its summary) unconditionally and checks that it
// is a 200 with readView's headers.
func getView(t *testing.T, base string, groups bool) (http.Header, []byte) {
	t.Helper()
	status, hdr, body := readView(t, base, groups, "")
	if status != http.StatusOK {
		t.Fatalf("%s = %d: %s", viewTarget(groups), status, body)
	}
	return hdr, body
}

// fillStream adds n random records over a rows×cols stream's bounds.
func fillStream(t *testing.T, s *stream.Repartitioner, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		lat, lon := rng.Float64()*10, rng.Float64()*10
		if err := s.Add(grid.Record{Lat: lat, Lon: lon, Values: []float64{1, 10 + lat + rng.Float64()}}); err != nil {
			t.Fatal(err)
		}
	}
}

func newViewStream(t *testing.T, n int) *stream.Repartitioner {
	t.Helper()
	attrs := []grid.Attribute{{Name: "count", Agg: grid.Sum, Integer: true}, {Name: "value", Agg: grid.Average}}
	s, err := stream.New(grid.Bounds{MinLat: 0, MaxLat: 10, MinLon: 0, MaxLon: 10}, n, n, attrs,
		stream.Options{Threshold: 0.1, Schedule: core.ScheduleGeometric})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServedViewBytesMatchProjection: a /view body is encoded once per served
// view and stored, and the stored bytes are exactly what WriteJSON writes for
// ViewBodyOf — for healthy and degraded views, with and without groups, when
// only the dataset, only the generation or only the degraded flag changes,
// for the next generation after an Add, and for concurrent first reads.
// Every 200 carries the ETag hashed from its bytes, and each change of view
// changes it. A read naming the current tag gets 304 with no body, the same
// ETag and, for a degraded view, the Warning; a read naming the previous
// view's tag gets the new body.
func TestServedViewBytesMatchProjection(t *testing.T) {
	src := readySource()
	_, ts := newTestServer(t, Config{Source: src})
	var prevTags [2]string // the previous view's ETags, full view and summary
	check := func(name string, v stream.View) {
		t.Helper()
		for k, groups := range []bool{true, false} {
			want := projection(t, v, groups)
			if prev := prevTags[k]; prev != "" {
				status, _, body := readView(t, ts.URL, groups, prev)
				if status != http.StatusOK || !bytes.Equal(body, want) {
					t.Fatalf("%s, %s with the previous view's tag: status %d:\ngot  %s\nwant %s",
						name, viewTarget(groups), status, body, want)
				}
			}
			var tag string
			for read := 0; read < 2; read++ { // the encoding read, then a stored one
				hdr, body := getView(t, ts.URL, groups)
				if !bytes.Equal(body, want) {
					t.Fatalf("%s, %s read %d:\ngot  %s\nwant %s", name, viewTarget(groups), read, body, want)
				}
				if (hdr.Get("Warning") != "") != v.Degraded {
					t.Fatalf("%s: Warning %q on a view with degraded=%t", name, hdr.Get("Warning"), v.Degraded)
				}
				tag = hdr.Get("ETag")
			}
			if tag == prevTags[k] {
				t.Fatalf("%s, %s: ETag %s is the previous view's", name, viewTarget(groups), tag)
			}
			status, hdr, _ := readView(t, ts.URL, groups, tag)
			if status != http.StatusNotModified || hdr.Get("ETag") != tag {
				t.Fatalf("%s, %s with its own tag: status %d ETag %s, want 304 %s", name, viewTarget(groups), status, hdr.Get("ETag"), tag)
			}
			if warning := hdr.Get("Warning"); strings.HasPrefix(warning, "110 ") != v.Degraded {
				t.Fatalf("%s: 304 with Warning %q on a view with degraded=%t", name, warning, v.Degraded)
			}
			prevTags[k] = tag
		}
	}
	serve := func(v stream.View) {
		src.mu.Lock()
		src.view = v
		src.mu.Unlock()
	}
	healthy := src.view
	check("healthy", healthy)

	degraded := healthy // the same dataset and generation, now degraded
	degraded.Degraded = true
	serve(degraded)
	check("degraded", degraded)

	next := degraded // the same dataset and flag under the next generation
	next.Generation++
	serve(next)
	check("same dataset, next generation", next)

	other := testView(next.Generation, true) // another dataset, same generation and flag
	other.IFL = 0.07
	other.Features[1][0] = 9
	serve(other)
	check("same generation, other dataset", other)

	// A live stream: one Add makes the next read serve the next generation.
	s := newViewStream(t, 12)
	rng := rand.New(rand.NewSource(8))
	fillStream(t, s, rng, 2000)
	_, lts := newTestServer(t, Config{Source: s})
	for step := 0; step < 2; step++ {
		for _, groups := range []bool{true, false} {
			_, body := getView(t, lts.URL, groups)
			v, err := s.Current()
			if err != nil {
				t.Fatal(err)
			}
			if v.Generation != step+1 {
				t.Fatalf("step %d: stream serves generation %d", step, v.Generation)
			}
			if want := projection(t, v, groups); !bytes.Equal(body, want) {
				t.Fatalf("step %d, %s: served bytes differ from generation %d's projection", step, viewTarget(groups), v.Generation)
			}
		}
		fillStream(t, s, rng, 1)
	}

	// Eight concurrent first reads of a fresh server all get the projection.
	gate := make(chan struct{})
	src2 := &stubSource{view: testView(5, false), entered: make(chan struct{}, 8), gate: gate}
	_, cts := newTestServer(t, Config{Source: src2})
	bodies := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(cts.URL + viewTarget(i%2 == 0))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i], err = io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	for range bodies {
		<-src2.entered
	}
	close(gate)
	wg.Wait()
	for i, body := range bodies {
		if want := projection(t, src2.view, i%2 == 0); !bytes.Equal(body, want) {
			t.Fatalf("concurrent read %d:\ngot  %s\nwant %s", i, body, want)
		}
	}
}

// TestViewReadAllocs: a repeated /view or summary read of an unchanged stream
// writes stored bytes, and a /view read naming the stored ETag writes a 304,
// so their allocations do not grow with the partition — the same count on a
// 16² and a 128² stream.
func TestViewReadAllocs(t *testing.T) {
	allocs := func(n int) (view, summary, notModified float64) {
		s := newViewStream(t, n)
		fillStream(t, s, rand.New(rand.NewSource(int64(n))), 4*n*n)
		srv, err := New(Config{Source: s})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		read := func(target, etag string) *countingWriter {
			w := &countingWriter{header: http.Header{}, status: http.StatusOK}
			r := httptest.NewRequest(http.MethodGet, target, nil)
			if etag != "" {
				r.Header.Set("If-None-Match", etag)
			}
			h.ServeHTTP(w, r)
			return w
		}
		full := func(target string) func() {
			return func() {
				if w := read(target, ""); w.status != http.StatusOK || w.header.Get("Content-Length") != strconv.Itoa(w.n) {
					t.Fatalf("%s = %d with Content-Length %q for %d bytes", target, w.status, w.header.Get("Content-Length"), w.n)
				}
			}
		}
		v, sm := full("/view"), full("/view?groups=false")
		etag := read("/view", "").header.Get("ETag") // the reads that encode
		sm()
		if st := s.Stats(); st.Generation != 1 {
			t.Fatalf("%d²: generation %d after the first reads", n, st.Generation)
		}
		nm := func() {
			if w := read("/view", etag); w.status != http.StatusNotModified || w.n != 0 {
				t.Fatalf("/view with If-None-Match %s = %d with %d bytes", etag, w.status, w.n)
			}
		}
		return testing.AllocsPerRun(20, v), testing.AllocsPerRun(20, sm), testing.AllocsPerRun(20, nm)
	}
	smallView, smallSummary, small304 := allocs(16)
	largeView, largeSummary, large304 := allocs(128)
	t.Logf("/view: %.0f allocations at 16², %.0f at 128²; summary: %.0f and %.0f; 304: %.0f and %.0f",
		smallView, largeView, smallSummary, largeSummary, small304, large304)
	if largeView != smallView || largeSummary != smallSummary || large304 != small304 {
		t.Errorf("allocations grow with the partition: /view %.0f → %.0f, summary %.0f → %.0f, 304 %.0f → %.0f (16² → 128²)",
			smallView, largeView, smallSummary, largeSummary, small304, large304)
	}
}

// countingWriter is a ResponseWriter that counts the body bytes instead of
// keeping them, so an allocation count measures the handler alone.
type countingWriter struct {
	header http.Header
	status int
	n      int
}

func (w *countingWriter) Header() http.Header { return w.header }

func (w *countingWriter) WriteHeader(status int) { w.status = status }

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}
