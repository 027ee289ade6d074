package core

// This file holds the parallel variants of the re-partitioning hot paths
// (DESIGN.md §3.11). Everything here is deterministic: every output value
// comes from a unit of work whose bounds never depend on the worker count — a
// field row, a group, an IFL row block — so any Workers value, including 1,
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

// AllocateFeaturesParallel is Algorithm 2 with the group loop sharded across
// up to `workers` goroutines (0 = GOMAXPROCS). Each group's feature vector
// depends only on that group's cells, so the output is bit-identical to
// AllocateFeatures for any worker count.
func AllocateFeaturesParallel(orig *grid.Grid, part *Partition, workers int) [][]float64 {
	workers = resolveWorkers(workers)
	n := len(part.Groups)
	if workers == 1 || n < 2*minParallelGroups {
		return AllocateFeatures(orig, part)
	}
	feats := make([][]float64, n)
	// Group sizes vary widely, so the groups are cut into more ranges than
	// workers and a worker that finishes early takes the next range.
	parallelRanges(n, 16*workers, workers, func(_, lo, hi int) {
		allocateRange(orig, part, feats, lo, hi, false)
	})
	return feats
}

// minParallelGroups is the group count below which AllocateFeaturesParallel
// falls back to the sequential pass (goroutine overhead dominates).
const minParallelGroups = 64

// iflBlockRows is the fixed row height of one IFL reduction block. It is a
// constant rather than a function of the worker count so that the partial
// sums are always taken over the same cell blocks and combined in the same
// order — making IFLParallel's result identical for every Workers value.
const iflBlockRows = 16

// IFLParallel is IFL with its fixed row blocks spread over up to `workers`
// goroutines (0 = GOMAXPROCS). The blocks and their combination order never
// depend on the worker count, so the result is bit-identical to IFL for every
// value.
func IFLParallel(orig *grid.Grid, part *Partition, feats [][]float64, workers int) float64 {
	return iflBlocks(orig, part, feats, attrSpans(orig), resolveWorkers(workers))
}

// iflBlocks is the one Eq. 3 reduction behind IFL and IFLParallel: the cell
// sweep is split into fixed iflBlockRows-row blocks, each block's partial sum
// is taken in row-major order, and the partials are combined in block order.
// Each block is its own shard, so a worker that finishes early takes the next
// block. spans are the attribute range spans of orig (attrSpans), passed in so
// a run that measures many partitions of one grid scans it once.
func iflBlocks(orig *grid.Grid, part *Partition, feats [][]float64, spans []float64, workers int) float64 {
	blocks := (orig.Rows + iflBlockRows - 1) / iflBlockRows
	sums := make([]float64, blocks)
	valids := make([]int, blocks)
	parallelRanges(blocks, blocks, workers, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			r0 := b * iflBlockRows
			sums[b], valids[b] = iflRows(orig, part, feats, spans, r0, min(r0+iflBlockRows, orig.Rows))
		}
	})
	var sum float64
	valid := 0
	for b := range sums { // combine in block order: deterministic
		sum += sums[b]
		valid += valids[b]
	}
	p := orig.NumAttrs()
	if valid == 0 || p == 0 {
		return 0
	}
	return sum / float64(valid*p)
}
