package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialrepart/internal/breaker"
	"spatialrepart/internal/fault"
	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
)

func testAttrs() []grid.Attribute {
	return []grid.Attribute{
		{Name: "count", Agg: grid.Sum, Integer: true},
		{Name: "value", Agg: grid.Average},
	}
}

func testBounds() grid.Bounds {
	return grid.Bounds{MinLat: 0, MaxLat: 10, MinLon: 0, MaxLon: 10}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(testBounds(), 0, 5, testAttrs(), Options{Threshold: 0.1}); err == nil {
		t.Error("want invalid-grid error")
	}
	if _, err := New(testBounds(), 5, 5, testAttrs(), Options{Threshold: 2}); err == nil {
		t.Error("want threshold error")
	}
	bad := []grid.Attribute{{Name: "z", Agg: grid.Sum, Categorical: true}}
	if _, err := New(testBounds(), 5, 5, bad, Options{Threshold: 0.1}); err == nil {
		t.Error("want attrs validation error")
	}
}

func TestAddAggregates(t *testing.T) {
	s, err := New(testBounds(), 10, 10, testAttrs(), Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(grid.Record{Lat: 0.5, Lon: 0.5, Values: []float64{1, 10}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(grid.Record{Lat: 0.5, Lon: 0.5, Values: []float64{1, 20}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(grid.Record{Lat: 99, Lon: 99, Values: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(grid.Record{Lat: 1, Lon: 1, Values: []float64{1}}); err == nil {
		t.Error("want arity error")
	}
	g := s.Grid()
	if g.At(0, 0, 0) != 2 {
		t.Errorf("count = %v, want 2", g.At(0, 0, 0))
	}
	if g.At(0, 0, 1) != 15 {
		t.Errorf("avg = %v, want 15", g.At(0, 0, 1))
	}
	st := s.Stats()
	if st.Accepted != 2 || st.Dropped != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCurrentRespectsThreshold(t *testing.T) {
	s, err := New(testBounds(), 8, 8, testAttrs(), Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		lat, lon := rng.Float64()*10, rng.Float64()*10
		base := 10 + lat // smooth gradient
		if err := s.Add(grid.Record{Lat: lat, Lon: lon, Values: []float64{1, base}}); err != nil {
			t.Fatal(err)
		}
	}
	rp, err := s.Current()
	if err != nil {
		t.Fatal(err)
	}
	if rp.IFL > 0.1 {
		t.Errorf("served IFL = %v exceeds threshold", rp.IFL)
	}
	if rp.NumGroups() == 0 {
		t.Error("no groups")
	}
}

// TestUnchangedStreamServesInstalledView: a staleness check needs at least
// one record since the served view's snapshot. Reads of an unchanged stream
// serve the installed view without snapshotting or recomputing; one Add makes
// the next read check exactly once; MinRecordsBetweenChecks still throttles;
// and a failed recompute leaves its records counted, so it serves Degraded
// and the breaker gates the retry although no record arrives.
func TestUnchangedStreamServesInstalledView(t *testing.T) {
	s, err := New(testBounds(), 8, 8, testAttrs(), Options{Threshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	add := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := s.Add(grid.Record{Lat: rng.Float64() * 10, Lon: rng.Float64() * 10, Values: []float64{1, 50}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(600)
	first, err := s.Current()
	if err != nil {
		t.Fatal(err)
	}
	computes := 0
	s.beforeCompute = func() { computes++ }
	before := s.Stats()
	for i := 0; i < 50; i++ {
		v, err := s.Current()
		if err != nil {
			t.Fatal(err)
		}
		if v != first {
			t.Fatalf("read %d of an unchanged stream served %+v, want the installed %+v", i, v, first)
		}
	}
	if st := s.Stats(); computes != 0 || st.Generation != before.Generation ||
		st.Recomputes != before.Recomputes {
		t.Fatalf("50 unchanged reads: %d computes, stats %+v, before %+v", computes, st, before)
	}

	// One record: the next read checks once, the reads after it do not.
	add(1)
	for i := 0; i < 3; i++ {
		if _, err := s.Current(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if computes != 1 || st.Generation != before.Generation+1 || st.Recomputes != before.Recomputes+1 {
		t.Fatalf("one Add: %d computes, stats %+v, before %+v; want exactly one check", computes, st, before)
	}

	// MinRecordsBetweenChecks = K: K−1 records serve the installed view, the
	// K-th makes the next read check.
	const k = 5
	s.opts.MinRecordsBetweenChecks = k
	add(k - 1)
	if _, err := s.Current(); err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Fatalf("%d records under K=%d checked: %d computes", k-1, k, computes)
	}
	add(1)
	if _, err := s.Current(); err != nil {
		t.Fatal(err)
	}
	if computes != 2 || s.Stats().Generation != before.Generation+2 {
		t.Fatalf("the K-th record did not check: %d computes, %+v", computes, s.Stats())
	}

	// A failed recompute keeps its records counted: the stream serves the
	// last-good view Degraded, and with no new record the breaker still
	// decides when the retry runs.
	errBoom := errors.New("boom")
	inj := fault.New(3)
	c, advance := chaosStream(t, inj, Options{Threshold: 0.2})
	inj.Set("stream.recompute", fault.Plan{Count: 1, Err: errBoom})
	good := c.Stats().Generation
	for i := 0; i < 3; i++ {
		v, err := c.Current()
		if err != nil || !v.Degraded || v.Generation != good {
			t.Fatalf("read %d after the failure: view %+v, err %v; want generation %d degraded", i, v, err, good)
		}
	}
	if hits, _ := inj.Stats("stream.recompute"); hits != 1 {
		t.Fatalf("the backoff window let %d attempts through, want 1", hits)
	}
	if st := c.Stats(); st.RecomputeFailures != 1 || st.StaleRecords != 1 || st.DegradedServes != 3 {
		t.Fatalf("after the failure: %+v", st)
	}
	advance(2 * time.Second)
	v, err := c.Current()
	if err != nil || v.Degraded || v.Generation != good+1 {
		t.Fatalf("retry past the backoff: view %+v, err %v; want fresh generation %d", v, err, good+1)
	}
	if hits, _ := inj.Stats("stream.recompute"); hits != 2 {
		t.Fatalf("retry did not run: %d attempts", hits)
	}
	if st := c.Stats(); st.StaleRecords != 0 || st.Breaker != breaker.Closed {
		t.Fatalf("after the retry: %+v", st)
	}
}

func TestRecomputeOnNullStructureChange(t *testing.T) {
	s, err := New(testBounds(), 4, 4, testAttrs(), Options{Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	// Populate only the left half.
	if err := s.Add(grid.Record{Lat: 1, Lon: 1, Values: []float64{1, 5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Current(); err != nil {
		t.Fatal(err)
	}
	// A record lands in a previously-null cell: the next read recomputes,
	// and the new view holds the cell in a valid group.
	if err := s.Add(grid.Record{Lat: 9, Lon: 9, Values: []float64{1, 5}}); err != nil {
		t.Fatal(err)
	}
	rp, err := s.Current()
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Recomputes != 2 {
		t.Errorf("recomputes = %d, want 2", st.Recomputes)
	}
	if rp.ValidGroups() < 2 {
		t.Errorf("valid groups = %d, want ≥ 2", rp.ValidGroups())
	}
}

func TestMinRecordsBetweenChecksThrottles(t *testing.T) {
	s, err := New(testBounds(), 4, 4, testAttrs(), Options{Threshold: 0.2, MinRecordsBetweenChecks: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(grid.Record{Lat: 1, Lon: 1, Values: []float64{1, 5}}); err != nil {
		t.Fatal(err)
	}
	first, err := s.Current()
	if err != nil {
		t.Fatal(err)
	}
	// A handful more records: under the check interval, the exact same view
	// is served without any work.
	for i := 0; i < 5; i++ {
		if err := s.Add(grid.Record{Lat: 2, Lon: 2, Values: []float64{1, 5}}); err != nil {
			t.Fatal(err)
		}
	}
	second, err := s.Current()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("throttled Current should serve the cached view")
	}
}

func TestConcurrentAddAndCurrent(t *testing.T) {
	s, err := New(testBounds(), 8, 8, testAttrs(), Options{Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				_ = s.Add(grid.Record{
					Lat: rng.Float64() * 10, Lon: rng.Float64() * 10,
					Values: []float64{1, rng.Float64() * 100},
				})
				if i%50 == 0 {
					_, _ = s.Current()
				}
			}
		}(int64(w))
	}
	wg.Wait()
	rp, err := s.Current()
	if err != nil {
		t.Fatal(err)
	}
	if rp.IFL > 0.3 {
		t.Errorf("final IFL = %v exceeds threshold", rp.IFL)
	}
	st := s.Stats()
	if st.Accepted != 800 {
		t.Errorf("accepted = %d, want 800", st.Accepted)
	}
}

func TestStreamCategoricalAttribute(t *testing.T) {
	attrs := []grid.Attribute{
		{Name: "count", Agg: grid.Sum, Integer: true},
		{Name: "zone", Agg: grid.Average, Categorical: true},
	}
	s, err := New(testBounds(), 4, 4, attrs, Options{Threshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	// Three records in one cell: zone 2 twice, zone 9 once → mode 2.
	for _, z := range []float64{2, 9, 2} {
		if err := s.Add(grid.Record{Lat: 1, Lon: 1, Values: []float64{1, z}}); err != nil {
			t.Fatal(err)
		}
	}
	g := s.Grid()
	if g.At(0, 0, 1) != 2 {
		t.Errorf("zone = %v, want modal 2", g.At(0, 0, 1))
	}
	if g.At(0, 0, 0) != 3 {
		t.Errorf("count = %v, want 3", g.At(0, 0, 0))
	}
	if _, err := s.Current(); err != nil {
		t.Fatal(err)
	}
}

// TestAddNotBlockedDuringRecompute is the regression test for the lock-split
// Current: ingestion must proceed while a recompute is in flight.
// The beforeCompute hook fires on the Current goroutine after the aggregates
// are snapshotted and all ingestion-path locks are released; an Add issued
// there must complete immediately. (Under the old implementation — s.mu held
// across the whole recompute — the Add blocks until the timeout.)
func TestAddNotBlockedDuringRecompute(t *testing.T) {
	s, err := New(testBounds(), 12, 12, testAttrs(), Options{Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		lat, lon := rng.Float64()*10, rng.Float64()*10
		if err := s.Add(grid.Record{Lat: lat, Lon: lon, Values: []float64{1, rng.Float64() * 100}}); err != nil {
			t.Fatal(err)
		}
	}
	hookRan := false
	s.beforeCompute = func() {
		hookRan = true
		done := make(chan error, 1)
		go func() {
			done <- s.Add(grid.Record{Lat: 5, Lon: 5, Values: []float64{1, 42}})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Add during recompute: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("Add blocked while a recompute was in flight")
		}
	}
	if _, err := s.Current(); err != nil {
		t.Fatal(err)
	}
	if !hookRan {
		t.Fatal("beforeCompute hook never fired")
	}
	// The record ingested mid-recompute must be in the aggregates.
	if st := s.Stats(); st.Accepted != 401 {
		t.Errorf("accepted = %d, want 401 (mid-recompute record counted)", st.Accepted)
	}
}

// TestConcurrentCurrentSingleRecompute: two simultaneous Current calls on a
// stale repartitioner must not both pay for a full re-partitioning — the
// second serves the first one's (fresher) result.
func TestConcurrentCurrentSingleRecompute(t *testing.T) {
	// MinRecordsBetweenChecks 1 keeps a goroutine that starts after the
	// winning recompute finished on the cached-view fast path, so exactly
	// one computation happens no matter how the four interleave.
	s, err := New(testBounds(), 10, 10, testAttrs(), Options{Threshold: 0.1, MinRecordsBetweenChecks: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		lat, lon := rng.Float64()*10, rng.Float64()*10
		if err := s.Add(grid.Record{Lat: lat, Lon: lon, Values: []float64{1, 10 + lat}}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Current(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Recomputes != 1 {
		t.Errorf("recomputes = %d, want 1 (no duplicated work)", st.Recomputes)
	}
}

func TestStreamEmptyCurrent(t *testing.T) {
	s, err := New(testBounds(), 3, 3, testAttrs(), Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// No records yet: an all-null grid still re-partitions cleanly.
	rp, err := s.Current()
	if err != nil {
		t.Fatal(err)
	}
	if rp.ValidGroups() != 0 {
		t.Errorf("valid groups = %d, want 0", rp.ValidGroups())
	}
}

// TestRecomputeFailureRecorded: a failing full recompute must not vanish —
// it is returned to the caller AND recorded in Stats and the obs counters,
// so later callers and monitoring can see the stream is limping.
func TestRecomputeFailureRecorded(t *testing.T) {
	o := obs.New()
	s, err := New(testBounds(), 6, 6, testAttrs(), Options{Threshold: 0.1, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		if err := s.Add(grid.Record{Lat: rng.Float64() * 10, Lon: rng.Float64() * 10,
			Values: []float64{1, rng.Float64() * 5}}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the threshold after construction so core.Repartition rejects
	// it — the only way to force a recompute failure from inside the tests.
	s.opts.Threshold = -1
	if _, err := s.Current(); err == nil {
		t.Fatal("want recompute error")
	}
	st := s.Stats()
	if st.RecomputeFailures != 1 {
		t.Errorf("RecomputeFailures = %d, want 1", st.RecomputeFailures)
	}
	if st.LastRecomputeErr == nil {
		t.Error("LastRecomputeErr not recorded")
	}
	if got := o.Registry().Counter("stream.recompute_failures").Value(); got != 1 {
		t.Errorf("obs failure counter = %d, want 1", got)
	}

	// Recovery: a valid threshold clears the path (the stale error stays
	// visible as the LAST error until the next failure).
	s.opts.Threshold = 0.1
	if _, err := s.Current(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Recomputes != 1 || st.RecomputeFailures != 1 {
		t.Errorf("after recovery: %+v", st)
	}
}

// TestStreamObsAndReport drives an instrumented stream through ingest and
// two recomputes, then checks the report and gauges line up with Stats.
func TestStreamObsAndReport(t *testing.T) {
	o := obs.New()
	s, err := New(testBounds(), 8, 8, testAttrs(), Options{Threshold: 0.15, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	add := func(n int) {
		for i := 0; i < n; i++ {
			if err := s.Add(grid.Record{Lat: rng.Float64() * 10, Lon: rng.Float64() * 10,
				Values: []float64{1, 3 + rng.Float64()*0.1}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(200)
	if err := s.Add(grid.Record{Lat: -5, Lon: -5, Values: []float64{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Current(); err != nil {
		t.Fatal(err)
	}
	add(30)
	if _, err := s.Current(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	reg := o.Registry()
	if got := reg.Counter("stream.accepted").Value(); got != int64(st.Accepted) {
		t.Errorf("accepted counter = %d, stats say %d", got, st.Accepted)
	}
	if got := reg.Counter("stream.dropped").Value(); got != 1 {
		t.Errorf("dropped counter = %d, want 1", got)
	}
	if got := reg.Counter("stream.recomputes").Value(); got != int64(st.Recomputes) {
		t.Errorf("recompute counter = %d, stats say %d", got, st.Recomputes)
	}
	if st.Recomputes > 0 && reg.Gauge("stream.last_recompute_ns").Value() <= 0 {
		t.Error("recompute latency gauge not set")
	}
	if g := reg.Gauge("stream.generation").Value(); g != float64(st.Recomputes) {
		t.Errorf("generation gauge = %v, want %d", g, st.Recomputes)
	}

	rep := s.Report()
	if rep.Accepted != st.Accepted || rep.Dropped != st.Dropped ||
		rep.Recomputes != st.Recomputes {
		t.Errorf("report counters %+v disagree with stats %+v", rep, st)
	}
	if rep.ServedGroups == 0 {
		t.Error("report has no served view")
	}
	if rep.Metrics == nil || rep.Metrics.Counters["stream.accepted"] != int64(st.Accepted) {
		t.Error("report metrics snapshot missing or wrong")
	}
	var buf bytes.Buffer
	if err := s.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	var round map[string]any
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("WriteReport output is not JSON: %v", err)
	}
	if _, ok := round["metrics"]; !ok {
		t.Error("report JSON missing metrics")
	}
}

// TestCheckpointHealthSurfaced pins the durability telemetry contract:
// RecordCheckpointResult feeds Stats (failure count, last error, age of
// the last success) and the /stats report carries the same fields.
func TestCheckpointHealthSurfaced(t *testing.T) {
	s, err := New(testBounds(), 5, 5, testAttrs(), Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1_000_000, 0)
	s.now = func() time.Time { return clock }

	if st := s.Stats(); st.CheckpointFailures != 0 || st.LastCheckpointErr != nil || st.LastCheckpointAge != 0 {
		t.Fatalf("pristine stats carry checkpoint state: %+v", st)
	}

	boom := errors.New("disk full")
	s.RecordCheckpointResult(boom)
	st := s.Stats()
	if st.CheckpointFailures != 1 || !errors.Is(st.LastCheckpointErr, boom) {
		t.Fatalf("after failure: failures=%d err=%v", st.CheckpointFailures, st.LastCheckpointErr)
	}
	if st.LastCheckpointAge != 0 {
		t.Fatalf("no successful checkpoint yet, but age = %v", st.LastCheckpointAge)
	}

	s.RecordCheckpointResult(nil)
	clock = clock.Add(42 * time.Second)
	st = s.Stats()
	if st.LastCheckpointErr != nil {
		t.Fatalf("success did not clear the error: %v", st.LastCheckpointErr)
	}
	if st.CheckpointFailures != 1 {
		t.Fatalf("success reset the failure count: %d", st.CheckpointFailures)
	}
	if st.LastCheckpointAge != 42*time.Second {
		t.Fatalf("age = %v, want 42s", st.LastCheckpointAge)
	}

	s.RecordCheckpointResult(errors.New("later failure"))
	var buf bytes.Buffer
	if err := s.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"checkpoint_failures": 2`, `"last_checkpoint_err": "later failure"`, `"last_checkpoint_age_ns": 42000000000`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report missing %s:\n%s", want, buf.String())
		}
	}
}
