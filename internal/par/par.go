// Package par is the module's one fan-out (DESIGN.md §3.11): it splits
// [0, n) into contiguous ranges and runs them on a bounded number of
// goroutines. Every caller is deterministic: each output value comes from a
// unit of work whose bounds never depend on the worker count — a field row,
// a group, a chunk of groups, a query, a tree, a backend — and is written to
// its own index, so any worker count, including 1, produces the same bytes.
// The worker count only controls how many ranges run at once.
package par

import (
	"runtime"
	"sync"
)

// Workers maps the Workers convention (0 or less = all cores) to a concrete
// goroutine count.
func Workers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// Ranges splits [0, n) into `shards` contiguous ranges and runs fn on up to
// `workers` of them concurrently; it returns once every call has returned.
// With one shard or one worker, fn runs once, over (0, 0, n), on the
// calling goroutine.
func Ranges(n, shards, workers int, fn func(shard, lo, hi int)) {
	if shards > n {
		shards = n
	}
	if shards <= 1 || workers <= 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + shards - 1) / shards
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for s := 0; s*chunk < n; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(s, lo, hi int) {
			defer wg.Done()
			fn(s, lo, hi)
			<-sem
		}(s, lo, hi)
	}
	wg.Wait()
}
