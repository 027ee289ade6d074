package core

// This file holds the sharding that Repartition's hot paths share (DESIGN.md
// §3.11): the variation-field build here and the rung memo's allocate and
// loss passes. Everything is deterministic: every output value comes from a
// unit of work whose bounds never depend on the worker count — a field row, a
// group, a chunk of lossChunk groups — so any Workers value, including 1,
// produces the same bytes. Workers only controls how many shards run at once.

import (
	"runtime"
	"sync"

	"spatialrepart/internal/grid"
)

// resolveWorkers maps the Options.Workers convention (0 = all cores) to a
// concrete goroutine count.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// parallelRanges splits [0, n) into `shards` contiguous ranges and runs fn
// on up to `workers` of them concurrently.
func parallelRanges(n, shards, workers int, fn func(shard, lo, hi int)) {
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

// BuildFieldParallel is BuildField with the row sweep sharded across up to
// `workers` goroutines (0 = GOMAXPROCS). Every field entry is computed
// independently, so the result is bit-identical to BuildField for any worker
// count.
func BuildFieldParallel(norm *grid.Grid, workers int) *VariationField {
	workers = resolveWorkers(workers)
	f := newField(norm)
	parallelRanges(norm.Rows, workers, workers, func(_, lo, hi int) {
		f.fillRows(norm, lo, hi)
	})
	return f
}

// minParallelGroups is the group count below which the rung memo's allocate
// pass runs on one goroutine (goroutine overhead dominates).
const minParallelGroups = 64
