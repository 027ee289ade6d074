package stream

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialrepart/internal/breaker"
	"spatialrepart/internal/core"
	"spatialrepart/internal/fault"
	"spatialrepart/internal/grid"
	"spatialrepart/internal/obs"
)

// chaosStream builds a stream with an armed injector and a manually advanced
// fake clock, pre-filled far enough that a first view exists, plus one record
// past that view, so the next read checks and reaches the
// "stream.recompute" fault point.
func chaosStream(t *testing.T, inj *fault.Injector, opts Options) (*Repartitioner, func(time.Duration)) {
	t.Helper()
	opts.Fault = inj
	s, err := New(testBounds(), 6, 6, ckptAttrs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Fill only lat < 8 — on a 6-row grid over [0,10) that keeps the whole
	// top row (lat ≥ 8.33) of cells empty.
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		rec := grid.Record{
			Lat: rng.Float64() * 8.0, Lon: rng.Float64() * 10,
			Values: []float64{1, rng.Float64() * 100, float64(rng.Intn(3))},
		}
		if err := s.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := s.Current(); err != nil {
		t.Fatal(err)
	} else if v.Degraded {
		t.Fatal("first view unexpectedly degraded")
	}
	// One record past the installed view, in the empty top row, makes the
	// next read check.
	if err := s.Add(grid.Record{Lat: 9.5, Lon: 9.5, Values: []float64{1, 50, 1}}); err != nil {
		t.Fatal(err)
	}

	clock := time.Unix(1_000_000, 0)
	s.now = func() time.Time { return clock }
	advance := func(d time.Duration) { clock = clock.Add(d) }
	return s, advance
}

// TestBreakerLifecycle drives the full closed → open → half-open → closed
// cycle deterministically: an injected failure plan supplies exactly
// failureThreshold errors, a fake clock steps over each backoff window, and
// the exhausted plan lets the half-open probe succeed.
func TestBreakerLifecycle(t *testing.T) {
	errBoom := errors.New("boom")
	inj := fault.New(99)
	s, advance := chaosStream(t, inj, Options{Threshold: 0.2})
	inj.Set("stream.recompute", fault.Plan{Count: 3, Err: errBoom})
	statsBefore := s.Stats()

	// Three consecutive failures; each serves the last-good view degraded
	// and the third opens the breaker.
	for i := 1; i <= failureThreshold; i++ {
		advance(2 * time.Second) // step over any pending backoff window
		v, err := s.Current()
		if err != nil {
			t.Fatalf("attempt %d: %v", i, err)
		}
		if !v.Degraded {
			t.Fatalf("attempt %d: view not degraded", i)
		}
		st := s.Stats()
		if st.ConsecutiveFailures != i {
			t.Fatalf("attempt %d: consecutive = %d", i, st.ConsecutiveFailures)
		}
		if !errors.Is(st.LastRecomputeErr, errBoom) {
			t.Fatalf("attempt %d: LastRecomputeErr = %v", i, st.LastRecomputeErr)
		}
		want := breaker.Closed
		if i == failureThreshold {
			want = breaker.Open
		}
		if st.Breaker != want {
			t.Fatalf("attempt %d: breaker %v, want %v", i, st.Breaker, want)
		}
	}
	if st := s.Stats(); st.BreakerOpens != 1 || st.RecomputeFailures != 3 {
		t.Fatalf("opens/failures = %d/%d, want 1/3", st.BreakerOpens, st.RecomputeFailures)
	}

	// While the breaker is open and the deadline has not passed, Current
	// serves degraded WITHOUT attempting: the injector sees no new hits.
	hitsBefore, _ := inj.Stats("stream.recompute")
	v, err := s.Current()
	if err != nil || !v.Degraded {
		t.Fatalf("open-breaker serve: view %+v, err %v", v, err)
	}
	if hits, _ := inj.Stats("stream.recompute"); hits != hitsBefore {
		t.Fatalf("open breaker still attempted: hits %d -> %d", hitsBefore, hits)
	}
	if st := s.Stats(); st.Recomputes != statsBefore.Recomputes {
		t.Fatal("open breaker performed a recompute")
	}

	// Past the deadline (at most 400 ms after the third failure) the
	// half-open probe runs; the exhausted plan lets it succeed, closing the
	// breaker and serving a fresh view.
	advance(5 * time.Second)
	v, err = s.Current()
	if err != nil {
		t.Fatal(err)
	}
	if v.Degraded {
		t.Fatal("recovered view still degraded")
	}
	st := s.Stats()
	if st.Breaker != breaker.Closed || st.ConsecutiveFailures != 0 {
		t.Fatalf("after probe: breaker %v, consecutive %d", st.Breaker, st.ConsecutiveFailures)
	}
	if st.StaleRecords != 0 {
		t.Fatalf("stale records = %d after successful recompute", st.StaleRecords)
	}
}

// TestDegradedServingBoundsStaleness asserts the degraded-mode contract:
// under persistent failure the last-good view keeps being served (same
// generation, Degraded set) and Stats.StaleRecords states exactly how many
// ingested records it is missing; recovery serves fresh and resets the bound.
func TestDegradedServingBoundsStaleness(t *testing.T) {
	inj := fault.New(7)
	s, advance := chaosStream(t, inj, Options{Threshold: 0.2})
	inj.Set("stream.recompute", fault.Plan{Count: -1}) // fail forever
	goodGen := -1
	stale := 1 // chaosStream added one record past the installed view
	for i := 0; i < 6; i++ {
		advance(time.Second)
		v, err := s.Current()
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if v.Repartitioned == nil {
			t.Fatalf("round %d: nil view although one exists", i)
		}
		if !v.Degraded {
			t.Fatalf("round %d: view not degraded under persistent failure", i)
		}
		if goodGen == -1 {
			goodGen = v.Generation
		} else if v.Generation != goodGen {
			t.Fatalf("round %d: generation drifted %d -> %d without a success", i, goodGen, v.Generation)
		}
		if st := s.Stats(); st.StaleRecords != stale {
			t.Fatalf("round %d: StaleRecords = %d, want %d", i, st.StaleRecords, stale)
		}
		if err := s.Add(grid.Record{Lat: 3, Lon: 3, Values: []float64{1, 10, 0}}); err != nil {
			t.Fatal(err)
		}
		stale++
	}
	if st := s.Stats(); st.DegradedServes != 6 {
		t.Fatalf("DegradedServes = %d, want 6", st.DegradedServes)
	}

	// Disarm the plan: the next admitted attempt succeeds and the staleness
	// debt is repaid. The rounds above failed at most six times, so the
	// pending backoff is at most 3.2 s.
	inj.Set("stream.recompute", fault.Plan{})
	advance(5 * time.Second)
	v, err := s.Current()
	if err != nil {
		t.Fatal(err)
	}
	if v.Degraded || v.Generation == goodGen {
		t.Fatalf("recovery serve: %+v", v)
	}
	if st := s.Stats(); st.StaleRecords != 0 {
		t.Fatalf("StaleRecords = %d after recovery", st.StaleRecords)
	}
}

// TestRecomputeDeadline injects a delay longer than RecomputeTimeout: the
// attempt must come back as a cancellation (core.ErrCanceled wrapping the
// deadline), surfaced directly since no view exists yet.
func TestRecomputeDeadline(t *testing.T) {
	inj := fault.New(3)
	inj.Set("stream.recompute", fault.Plan{Count: 1, Delay: 80 * time.Millisecond})
	s, err := New(testBounds(), 6, 6, ckptAttrs(), Options{
		Threshold:        0.2,
		RecomputeTimeout: 10 * time.Millisecond,
		Fault:            inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		rec := grid.Record{
			Lat: rng.Float64() * 10, Lon: rng.Float64() * 10,
			Values: []float64{1, rng.Float64() * 100, float64(rng.Intn(3))},
		}
		if err := s.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	_, err = s.Current()
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("error = %v, want core.ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want wrapped DeadlineExceeded", err)
	}
	if st := s.Stats(); st.RecomputeFailures != 1 {
		t.Fatalf("RecomputeFailures = %d", st.RecomputeFailures)
	}
	// The plan is exhausted; the retry succeeds well inside the deadline.
	if v, err := s.Current(); err != nil || v.Degraded {
		t.Fatalf("retry: view %+v, err %v", v, err)
	}
}

// TestInjectedPanicBecomesFailure: a chaos panic in the recompute path is
// recovered into an ordinary failure — the serving goroutine survives.
func TestInjectedPanicBecomesFailure(t *testing.T) {
	inj := fault.New(11)
	s, advance := chaosStream(t, inj, Options{Threshold: 0.2})
	inj.Set("stream.recompute", fault.Plan{Count: 1, Panic: true})
	advance(time.Second)
	v, err := s.Current()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Degraded {
		t.Fatal("view after panic not degraded")
	}
	st := s.Stats()
	if st.RecomputeFailures != 1 || st.LastRecomputeErr == nil {
		t.Fatalf("stats after panic: %+v", st)
	}
	advance(time.Minute)
	if v, err := s.Current(); err != nil || v.Degraded {
		t.Fatalf("recovery after panic: view %+v, err %v", v, err)
	}
}

// TestChaosConcurrentReconciliation is the -race chaos soak: ingestion,
// serving, and checkpointing race while the injector fails ~30% of full
// recomputes. Invariants: Current never errors or returns a nil view once
// one exists, and afterwards every counter reconciles — accepted records,
// injector fires vs recorded failures, degraded serves vs failures+skips.
//
// Every check is a recompute, so every check reaches the fault point; the
// 32×32 grid that 150 records leave mostly empty keeps each one cheap.
func TestChaosConcurrentReconciliation(t *testing.T) {
	errChaos := errors.New("chaos")
	inj := fault.New(12345)
	o := obs.New()
	opts := Options{
		Threshold: 0.25,
		Obs:       o,
		Fault:     inj,
	}
	const rows, cols = 32, 32
	s, err := New(testBounds(), rows, cols, ckptAttrs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Keep attempts flowing: every reading of the clock steps a whole
	// maxBackoff past the previous one, so each backoff window has passed by
	// the next attempt.
	var ticks atomic.Int64
	s.now = func() time.Time { return time.Unix(0, ticks.Add(int64(maxBackoff))) }
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 150; i++ {
		rec := grid.Record{
			Lat: rng.Float64() * 5, Lon: rng.Float64() * 10,
			Values: []float64{1, rng.Float64() * 100, float64(rng.Intn(3))},
		}
		if err := s.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Current(); err != nil {
		t.Fatal(err)
	}
	// Arm only after the first view exists: from here on, every injected
	// failure has a last-good view to fall back on. The window fails the
	// first recompute for certain, and the record below, in the empty top
	// half, makes the next check one: so at least one failure and one
	// degraded serve happen whatever the goroutines below do.
	inj.Set("stream.recompute", fault.Plan{First: 0, Count: 1, Prob: 0.3, Err: errChaos})
	if err := s.Add(grid.Record{Lat: 9.9, Lon: 9.9, Values: []float64{1, 50, 1}}); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Current(); err != nil || !v.Degraded {
		t.Fatalf("first armed check: degraded %v, err %v; want a degraded serve", v.Degraded, err)
	}

	const adders, addsEach = 4, 250
	var wg sync.WaitGroup
	for w := 0; w < adders; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < addsEach; i++ {
				rec := grid.Record{
					Lat: rng.Float64() * 10, Lon: rng.Float64() * 10,
					Values: []float64{1, rng.Float64() * 50, float64(rng.Intn(3))},
				}
				if err := s.Add(rec); err != nil {
					t.Error(err)
					return
				}
				// A check of its own every 25 records keeps recomputes
				// coming while the records arrive: one takes far longer
				// than the adds it races.
				if i%25 == 24 {
					if v, err := s.Current(); err != nil || v.Repartitioned == nil {
						t.Errorf("Current with a view available: %v, nil view %v", err, v.Repartitioned == nil)
						return
					}
				}
			}
		}(int64(100 + w))
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				v, err := s.Current()
				if err != nil {
					t.Errorf("Current errored with a view available: %v", err)
					return
				}
				if v.Repartitioned == nil {
					t.Error("nil view served")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			if err := s.Checkpoint(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	st := s.Stats()
	if st.Accepted != 151+adders*addsEach {
		t.Errorf("accepted = %d, want %d", st.Accepted, 151+adders*addsEach)
	}
	// Injected errors are the only failure source, so the injector's fire
	// count and the stream's failure count must agree exactly.
	hits, fired := inj.Stats("stream.recompute")
	if int(fired) != st.RecomputeFailures {
		t.Errorf("injector fired %d, stream recorded %d failures", fired, st.RecomputeFailures)
	}
	t.Logf("%d recompute attempts, %d injected failures, %d degraded serves", hits, fired, st.DegradedServes)
	if fired < 1 || st.DegradedServes < 1 {
		t.Errorf("%d injected failures and %d degraded serves; the soak must reach its fault point", fired, st.DegradedServes)
	}
	if st.RecomputeFailures > 0 && !errors.Is(st.LastRecomputeErr, errChaos) {
		t.Errorf("LastRecomputeErr = %v", st.LastRecomputeErr)
	}

	// The surviving state checkpoints and restores cleanly.
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := New(testBounds(), rows, cols, ckptAttrs(), Options{Threshold: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if st2 := s2.Stats(); st2.Accepted != st.Accepted || st2.RecomputeFailures != st.RecomputeFailures {
		t.Errorf("restored stats %+v differ from %+v", st2, st)
	}
	if _, err := s2.Current(); err != nil {
		t.Fatal(err)
	}
}
