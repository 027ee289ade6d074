package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"spatialrepart/internal/obs"
	"spatialrepart/internal/server"
)

// TestStitchTilesGrid is the stitched view's tiling property for N∈{1,2,4}:
// every global cell lies in exactly one stitched group, IDs run 0..n−1 in
// row-major corner order, valid_groups counts the non-null groups, the IFL
// is the valid-cell-weighted mean of the shard IFLs (a lone shard's
// verbatim), and the groups=false summary, stitched from the shards' own
// summaries, agrees with the full view (its IFL bit for bit).
func TestStitchTilesGrid(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(200 + shards)))
			var mu sync.Mutex
			asked := make([][]string, shards) // request URIs per shard
			tc := startCluster(t, 13, 7, shards, testRecords(rng, testBounds(), 60), nil, func(i int, h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					mu.Lock()
					asked[i] = append(asked[i], r.URL.RequestURI())
					mu.Unlock()
					h.ServeHTTP(w, r)
				})
			})
			resp, body := getBody(t, tc.front.URL+"/view")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/view status %d: %s", resp.StatusCode, body)
			}
			var cv ViewBody
			if err := json.Unmarshal(body, &cv); err != nil {
				t.Fatal(err)
			}

			owner := make([]int, cv.Rows*cv.Cols)
			for i := range owner {
				owner[i] = -1
			}
			valid, prev := 0, -1
			for i, g := range cv.CellGroups {
				if g.ID != i {
					t.Fatalf("group %d carries ID %d", i, g.ID)
				}
				if corner := g.RowBegin*cv.Cols + g.ColBegin; corner <= prev {
					t.Fatalf("group %d corner (%d,%d) is out of row-major order", i, g.RowBegin, g.ColBegin)
				} else {
					prev = corner
				}
				if want := (g.RowEnd - g.RowBegin + 1) * (g.ColEnd - g.ColBegin + 1); g.Cells != want {
					t.Fatalf("group %d has cells=%d, its extent %d", i, g.Cells, want)
				}
				for r := g.RowBegin; r <= g.RowEnd; r++ {
					for c := g.ColBegin; c <= g.ColEnd; c++ {
						if o := owner[r*cv.Cols+c]; o != -1 {
							t.Fatalf("cell (%d,%d) lies in groups %d and %d", r, c, o, i)
						}
						owner[r*cv.Cols+c] = i
					}
				}
				if !g.Null {
					valid++
				}
			}
			for cell, o := range owner {
				if o == -1 {
					t.Fatalf("cell (%d,%d) lies in no group", cell/cv.Cols, cell%cv.Cols)
				}
			}
			if cv.Groups != len(cv.CellGroups) || cv.ValidGroups != valid {
				t.Fatalf("groups=%d valid_groups=%d, the list has %d groups, %d valid",
					cv.Groups, cv.ValidGroups, len(cv.CellGroups), valid)
			}
			if valid == cv.Groups {
				t.Fatal("no null group: the valid_groups count is not exercised")
			}

			weighted, weight := 0.0, 0
			for i, s := range tc.streams {
				v, err := s.Current()
				if err != nil {
					t.Fatal(err)
				}
				cells := 0
				for _, g := range v.Partition.Groups {
					if !g.Null {
						cells += g.Size()
					}
				}
				weighted += float64(cells) * v.IFL
				weight += cells
				if cv.Shards[i].IFL != v.IFL {
					t.Fatalf("shard %d IFL %v, its stream serves %v", i, cv.Shards[i].IFL, v.IFL)
				}
			}
			want := weighted / float64(weight)
			if shards == 1 {
				want = cv.Shards[0].IFL
			}
			if cv.IFL != want {
				t.Fatalf("stitched IFL %v, want the valid-cell-weighted mean %v", cv.IFL, want)
			}

			mu.Lock()
			asked = make([][]string, shards)
			mu.Unlock()
			_, body = getBody(t, tc.front.URL+"/view?groups=false")
			var sv ViewBody
			if err := json.Unmarshal(body, &sv); err != nil {
				t.Fatal(err)
			}
			if sv.Groups != cv.Groups || sv.ValidGroups != cv.ValidGroups ||
				math.Float64bits(sv.IFL) != math.Float64bits(cv.IFL) || sv.CellGroups != nil {
				t.Fatalf("summary groups=%d valid=%d ifl=%v (%d groups listed), full view %d/%d/%v",
					sv.Groups, sv.ValidGroups, sv.IFL, len(sv.CellGroups), cv.Groups, cv.ValidGroups, cv.IFL)
			}
			mu.Lock()
			defer mu.Unlock()
			for i, uris := range asked {
				if len(uris) != 1 || uris[0] != "/view?groups=false" {
					t.Fatalf("the summary read asked shard %d for %q, want one /view?groups=false", i, uris)
				}
			}
		})
	}
}

// TestStitchedIFLWithinThreshold: shards that each kept IFL ≤ θ stitch to
// an IFL ≤ θ, for the full view and the groups=false summary alike, whatever
// their valid-cell weights. The valid-cell-weighted fold can round one ulp
// above its largest term; the first case is such a fold (four shards at
// exactly θ = 0.1), and the random cases must hit at least one more, so the
// test fails unless the stitched IFL is kept within the shard IFLs' range.
func TestStitchedIFLWithinThreshold(t *testing.T) {
	p, err := NewPlan(4*170, 200, testBounds(), 4)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, p Plan, valid []int, ifl []float64, theta float64) (overshoot bool) {
		t.Helper()
		weighted, weight := 0.0, 0
		for i := range valid {
			weighted += float64(valid[i]) * ifl[i]
			weight += valid[i]
		}
		var ifls [2]float64
		for k, includeGroups := range []bool{true, false} {
			views := make([]server.ViewBody, len(p.Bands))
			for i, b := range p.Bands {
				views[i] = bandView(b.Rows(), p.Cols, valid[i], ifl[i], includeGroups)
			}
			body, err := concatenate(p, views, make([]error, len(views)), includeGroups)
			if err != nil {
				t.Fatalf("%s groups=%t: %v", label, includeGroups, err)
			}
			if body.IFL > theta {
				t.Fatalf("%s groups=%t: valid cells %v, shard IFLs %v ≤ θ=%v stitch to IFL %v",
					label, includeGroups, valid, ifl, theta, body.IFL)
			}
			ifls[k] = body.IFL
		}
		if math.Float64bits(ifls[0]) != math.Float64bits(ifls[1]) {
			t.Fatalf("%s: full view IFL %v, summary %v", label, ifls[0], ifls[1])
		}
		return weight > 0 && weighted/float64(weight) > theta
	}
	if !check("documented", p, []int{33462, 4255, 9235, 10910}, []float64{0.1, 0.1, 0.1, 0.1}, 0.1) {
		t.Fatal("the documented four-shard fold no longer rounds above θ; the case tests nothing")
	}

	rng := rand.New(rand.NewSource(61))
	overshoots := 0
	for trial := 0; trial < 400; trial++ {
		shards := 2 + rng.Intn(3)
		p, err := NewPlan(shards*(1+rng.Intn(60)), 1+rng.Intn(200), testBounds(), shards)
		if err != nil {
			t.Fatal(err)
		}
		theta := 0.1
		if trial%2 == 1 {
			theta = rng.Float64()
		}
		valid, ifl := make([]int, shards), make([]float64, shards)
		for i, b := range p.Bands {
			valid[i] = rng.Intn(b.Rows()*p.Cols + 1)
			ifl[i] = theta
			if rng.Intn(4) == 0 {
				ifl[i] = theta * rng.Float64()
			}
		}
		if check(fmt.Sprintf("trial %d", trial), p, valid, ifl, theta) {
			overshoots++
		}
	}
	if overshoots == 0 {
		t.Fatal("no random fold rounded above θ; the random cases test nothing")
	}
}

// bandView returns a rows×cols shard body with valid non-null cells and the
// given IFL: with includeGroups, non-null groups over the first valid cells
// in row-major order and null groups over the rest; without, the summary
// counts of that same partition.
func bandView(rows, cols, valid int, ifl float64, includeGroups bool) server.ViewBody {
	v := server.ViewBody{Rows: rows, Cols: cols, ValidCells: valid, IFL: ifl}
	add := func(r0, r1, c0, c1 int, null bool) {
		v.CellGroups = append(v.CellGroups, server.GroupBody{
			ID: len(v.CellGroups), RowBegin: r0, RowEnd: r1, ColBegin: c0, ColEnd: c1,
			Cells: (r1 - r0 + 1) * (c1 - c0 + 1), Null: null,
		})
		if !null {
			v.ValidGroups++
		}
	}
	full, rem := valid/cols, valid%cols
	if full > 0 {
		add(0, full-1, 0, cols-1, false)
	}
	next := full // first row not yet covered
	if rem > 0 {
		add(full, full, 0, rem-1, false)
		add(full, full, rem, cols-1, true)
		next++
	}
	if next < rows {
		add(next, rows-1, 0, cols-1, true)
	}
	v.Groups = len(v.CellGroups)
	if !includeGroups {
		v.CellGroups = nil
	}
	return v
}

// TestMalformedShardPayloadGoesMissing: a shard /view body or groups=false
// summary that does not fit its band is rejected whole, and so is a 304
// answer to a request that named no ETag. The shard is listed in
// missing_shards of a 200 + Warning: 110 response, the healthy shard's
// groups (or counts and IFL) are served unchanged, no rejection counts as a
// breaker failure, and no view with a rejected shard is stored.
func TestMalformedShardPayloadGoesMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var mutate atomic.Pointer[func(*server.ViewBody)]
	var notModified atomic.Bool      // shard 1 answers every /view with 304
	var notModifiedHits atomic.Int64 // /view requests shard 1 answered with 304
	var conditional0 atomic.Int64    // /view requests shard 0 got with If-None-Match
	obsv := obs.New()
	tc := startCluster(t, 10, 6, 2, testRecords(rng, testBounds(), 700), func(cfg *Config) {
		cfg.Obs = obsv
	}, func(i int, h http.Handler) http.Handler {
		if i == 0 {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/view" && r.Header.Get("If-None-Match") != "" {
					conditional0.Add(1)
				}
				h.ServeHTTP(w, r)
			})
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/view" && notModified.Load() {
				notModifiedHits.Add(1)
				if tag := r.Header.Get("If-None-Match"); tag != "" {
					t.Errorf("shard 1 asked for /view with If-None-Match %s, want an unconditional request", tag)
				}
				w.WriteHeader(http.StatusNotModified)
				return
			}
			m := mutate.Load()
			if r.URL.Path != "/view" || m == nil {
				h.ServeHTTP(w, r)
				return
			}
			// The inner call names no ETag, so it always answers with a body
			// to mutate; the mutated body goes out under the inner body's
			// ETag, so only the band check keeps it out of the store.
			r = r.Clone(r.Context())
			r.Header.Del("If-None-Match")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var v server.ViewBody
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
				t.Errorf("shard 1 view: %v", err)
				return
			}
			(*m)(&v)
			w.Header().Set("ETag", rec.Header().Get("ETag"))
			json.NewEncoder(w).Encode(v)
		})
	})
	viewReads := func() (stored, stitched int64) {
		reg := obsv.Registry()
		return reg.Counter("cluster.view.stored").Value(), reg.Counter("cluster.view.stitched").Value()
	}

	_, body := getBody(t, tc.front.URL+"/view")
	var healthy ViewBody
	if err := json.Unmarshal(body, &healthy); err != nil {
		t.Fatal(err)
	}
	// The healthy view is stored: the next read revalidates it and serves it.
	if _, again := getBody(t, tc.front.URL+"/view"); !bytes.Equal(again, body) {
		t.Fatalf("stored read differs from the stitched one:\ngot  %s\nwant %s", again, body)
	}
	if stored, stitched := viewReads(); stored != 1 || stitched != 1 {
		t.Fatalf("healthy reads: %d stored, %d stitched, want 1 and 1", stored, stitched)
	}
	var shard0 []server.GroupBody
	for _, g := range healthy.CellGroups {
		if g.RowBegin < tc.plan.Bands[0].Row1 {
			shard0 = append(shard0, g)
		}
	}
	if len(shard0) == 0 || len(healthy.CellGroups)-len(shard0) < 2 {
		t.Fatalf("want groups on both shards and two on shard 1, got %d of %d on shard 0", len(shard0), len(healthy.CellGroups))
	}
	want0, _ := json.Marshal(shard0)

	last := func(v *server.ViewBody) *server.GroupBody { return &v.CellGroups[len(v.CellGroups)-1] }
	cases := []struct {
		name   string
		mutate func(*server.ViewBody)
	}{
		{"rows differ from the band", func(v *server.ViewBody) { v.Rows++ }},
		{"cols differ from the band", func(v *server.ViewBody) { v.Cols-- }},
		{"group past the grid's last row", func(v *server.ViewBody) { last(v).RowEnd = v.Rows }},
		{"group past the grid's last column", func(v *server.ViewBody) { last(v).ColEnd = v.Cols }},
		{"group above the band", func(v *server.ViewBody) { v.CellGroups[0].RowBegin = -1 }},
		{"inverted extent", func(v *server.ViewBody) { v.CellGroups[0].RowEnd = v.CellGroups[0].RowBegin - 1 }},
		{"corners out of order", func(v *server.ViewBody) {
			v.CellGroups[0], v.CellGroups[1] = v.CellGroups[1], v.CellGroups[0]
		}},
		{"duplicate corner", func(v *server.ViewBody) {
			v.CellGroups = append([]server.GroupBody{v.CellGroups[0]}, v.CellGroups...)
		}},
	}
	// A summary carries counts instead of a group list; counts that cannot
	// describe the band's cells reject it the same way.
	summaryCases := []struct {
		name   string
		mutate func(*server.ViewBody)
	}{
		{"summary valid_groups above groups", func(v *server.ViewBody) { v.ValidGroups = v.Groups + 1 }},
		{"summary groups above the band's cells", func(v *server.ViewBody) { v.Groups = v.Rows*v.Cols + 1 }},
		{"summary valid_cells above the band's cells", func(v *server.ViewBody) { v.ValidCells = v.Rows*v.Cols + 1 }},
		{"summary valid_cells below valid_groups", func(v *server.ViewBody) { v.ValidCells = v.ValidGroups - 1 }},
		{"summary rows differ from the band", func(v *server.ViewBody) { v.Rows++ }},
	}
	valid0 := 0
	for _, g := range shard0 {
		if !g.Null {
			valid0++
		}
	}
	reject := func(name, target string, m func(*server.ViewBody)) ViewBody {
		t.Helper()
		mutate.Store(&m)
		resp, body := getBody(t, tc.front.URL+target)
		if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Warning"), "110 ") {
			t.Fatalf("%s: status %d warning %q: %s", name, resp.StatusCode, resp.Header.Get("Warning"), body)
		}
		var cv ViewBody
		if err := json.Unmarshal(body, &cv); err != nil {
			t.Fatal(err)
		}
		if !cv.Degraded || len(cv.MissingShards) != 1 || cv.MissingShards[0] != 1 {
			t.Fatalf("%s: degraded=%t missing=%v, want shard 1 missing", name, cv.Degraded, cv.MissingShards)
		}
		return cv
	}
	for _, c := range cases {
		cv := reject(c.name, "/view", c.mutate)
		if got, _ := json.Marshal(cv.CellGroups); !bytes.Equal(got, want0) {
			t.Fatalf("%s: shard 0's groups changed:\ngot  %s\nwant %s", c.name, got, want0)
		}
	}
	for _, c := range summaryCases {
		cv := reject(c.name, "/view?groups=false", c.mutate)
		if cv.Groups != len(shard0) || cv.ValidGroups != valid0 || cv.IFL != healthy.Shards[0].IFL || cv.CellGroups != nil {
			t.Fatalf("%s: summary groups=%d valid=%d ifl=%v, want shard 0's %d/%d/%v",
				c.name, cv.Groups, cv.ValidGroups, cv.IFL, len(shard0), valid0, healthy.Shards[0].IFL)
		}
	}
	notModified.Store(true) // the wrapper checks it before any mutation
	cv := reject("304 to an unconditional request", "/view", nil)
	if got, _ := json.Marshal(cv.CellGroups); !bytes.Equal(got, want0) {
		t.Fatalf("304 to an unconditional request: shard 0's groups changed:\ngot  %s\nwant %s", got, want0)
	}
	if got := notModifiedHits.Load(); got != 1 {
		t.Fatalf("shard 1 was asked %d times for a view it answered with 304, want once", got)
	}
	notModified.Store(false)
	mutate.Store(nil)

	// Only the first rejected read revalidated the healthy stored view, and
	// it dropped it: had a view with a rejected shard been stored, a later
	// read would have sent shard 0 its tag. Once shard 1 heals, the view is
	// stitched and stored again.
	if got := conditional0.Load(); got != 2 {
		t.Fatalf("shard 0 got %d conditional /view requests, want 2 (the healthy stored read, the first rejected read)", got)
	}
	if _, again := getBody(t, tc.front.URL+"/view"); !bytes.Equal(again, body) {
		t.Fatalf("healed view differs from the healthy one:\ngot  %s\nwant %s", again, body)
	}
	if _, again := getBody(t, tc.front.URL+"/view"); !bytes.Equal(again, body) {
		t.Fatalf("healed stored view differs from the healthy one:\ngot  %s\nwant %s", again, body)
	}
	if stored, stitched := viewReads(); stored != 2 || stitched != int64(2+len(cases)+1) {
		t.Fatalf("%d stored and %d stitched /view reads, want 2 and %d", stored, stitched, 2+len(cases)+1)
	}
	if got := conditional0.Load(); got != 3 {
		t.Fatalf("shard 0 got %d conditional /view requests, want 3", got)
	}

	_, body = getBody(t, tc.front.URL+"/stats")
	var sb StatsBody
	if err := json.Unmarshal(body, &sb); err != nil {
		t.Fatal(err)
	}
	if sb.Shards[1].Breaker != "closed" || sb.Shards[1].Failures != 0 {
		t.Fatalf("%d rejected payloads reached the breaker: %+v", len(cases)+len(summaryCases)+1, sb.Shards[1])
	}
}
