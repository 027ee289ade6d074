package par

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type call struct{ shard, lo, hi int }

// TestRangesVisitEachIndexOnce: for every (n, shards, workers), the calls
// cover [0, n) in contiguous, disjoint ranges, each index exactly once, with
// distinct shard numbers below shards and no more than workers calls running
// at once. With one shard or one worker — after shards is capped at n — fn
// runs once, over (0, 0, n).
func TestRangesVisitEachIndexOnce(t *testing.T) {
	cases := []struct{ n, shards, workers int }{
		{0, 4, 4},
		{0, 1, 1},
		{1, 4, 4},
		{3, 8, 2},
		{10, 1, 4},
		{10, 4, 1},
		{10, 3, 2},
		{10, 6, 8},
		{17, 64, 3},
		{100, 16, 4},
		{1000, 48, 3},
	}
	for _, tc := range cases {
		var mu sync.Mutex
		var calls []call
		active, peak := 0, 0
		visits := make([]int, tc.n)
		Ranges(tc.n, tc.shards, tc.workers, func(shard, lo, hi int) {
			mu.Lock()
			active++
			peak = max(peak, active)
			calls = append(calls, call{shard, lo, hi})
			for i := lo; i < hi; i++ {
				visits[i]++
			}
			mu.Unlock()
			runtime.Gosched()
			mu.Lock()
			active--
			mu.Unlock()
		})
		if min(tc.shards, tc.n) <= 1 || tc.workers <= 1 {
			if len(calls) != 1 || calls[0] != (call{0, 0, tc.n}) {
				t.Errorf("%+v: calls %v, want one over (0, 0, %d)", tc, calls, tc.n)
			}
			continue
		}
		if len(calls) > tc.shards {
			t.Errorf("%+v: %d calls, want at most %d", tc, len(calls), tc.shards)
		}
		if peak > tc.workers {
			t.Errorf("%+v: %d calls ran at once, want at most %d", tc, peak, tc.workers)
		}
		sort.Slice(calls, func(a, b int) bool { return calls[a].lo < calls[b].lo })
		shards := map[int]bool{}
		next := 0
		for _, c := range calls {
			if c.lo != next || c.hi <= c.lo {
				t.Errorf("%+v: range [%d, %d) after index %d: ranges must be contiguous and non-empty (calls %v)",
					tc, c.lo, c.hi, next, calls)
			}
			if shards[c.shard] || c.shard < 0 || c.shard >= tc.shards {
				t.Errorf("%+v: shard %d repeated or out of range (calls %v)", tc, c.shard, calls)
			}
			shards[c.shard] = true
			next = c.hi
		}
		if next != tc.n {
			t.Errorf("%+v: ranges end at %d, want %d", tc, next, tc.n)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("%+v: index %d visited %d times", tc, i, v)
			}
		}
	}
}

// TestRangesRunWorkersAtOnce: with more ranges than workers, Ranges really
// runs workers calls at once. Each call waits until workers calls have
// started, which can only happen if that many run together.
func TestRangesRunWorkersAtOnce(t *testing.T) {
	const workers = 4
	var started atomic.Int32
	all := make(chan struct{})
	Ranges(64, 16, workers, func(_, _, _ int) {
		if started.Add(1) == workers {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			t.Errorf("fewer than %d calls ran at once", workers)
		}
	})
	if got := started.Load(); got != 16 {
		t.Errorf("%d calls, want 16", got)
	}
}

// TestWorkersDefaultsToGOMAXPROCS: zero and negative worker counts mean all
// cores; a positive count is kept.
func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	for _, w := range []int{0, -3} {
		if got := Workers(w); got != runtime.GOMAXPROCS(0) {
			t.Errorf("Workers(%d) = %d, want GOMAXPROCS %d", w, got, runtime.GOMAXPROCS(0))
		}
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d, want 5", got)
	}
}
