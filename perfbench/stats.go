package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples),
// leaving xs untouched.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is the middle value of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// supports reports whether n samples leave at least minBeyond of them above
// the q-quantile: a tail percentile is reported only when they do.
func supports(n int, q float64) bool { return float64(n)*(1-q) >= minBeyond-1e-9 }

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// usage tracks what a measured phase costs the process: the live heap
// (bytes the GC marked live) after each GC cycle, the bytes allocated and the
// CPU time used. start forces a collection so the phase starts from the
// set-up's live data, not from its garbage.
type usage struct {
	stop   chan struct{}
	done   sync.WaitGroup
	alloc0 uint64
	user0  time.Duration
	sys0   time.Duration
	cycles []float64 // live heap after each GC cycle of the phase, bytes
}

// cost is a phase's resource use.
type cost struct {
	heapMB    float64       // mean live heap over the phase's GC cycles, MB
	allocMB   float64       // bytes allocated, MB
	user, sys time.Duration // CPU time of the process in user and kernel mode
}

const (
	liveHeapMetric = "/gc/heap/live:bytes"
	allocsMetric   = "/gc/heap/allocs:bytes"
	cyclesMetric   = "/gc/cycles/total:gc-cycles"
)

func startUsage() *usage {
	runtime.GC()
	w := &usage{stop: make(chan struct{})}
	w.user0, w.sys0 = cpuTime()
	var cycles0 uint64
	_, w.alloc0, cycles0 = w.read()
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		seen := cycles0
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				if live, _, n := w.read(); n != seen {
					seen = n
					w.cycles = append(w.cycles, float64(live))
				}
			}
		}
	}()
	return w
}

// read returns the live heap as of the last GC cycle, the bytes allocated so
// far and the number of completed GC cycles.
func (w *usage) read() (live, alloc, cycles uint64) {
	s := []metrics.Sample{{Name: liveHeapMetric}, {Name: allocsMetric}, {Name: cyclesMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

// finish stops the sampler and returns the phase's cost. The heap figure is
// the mean over the phase's GC cycles: cycles tend to end while a large
// response or a recompute is in flight, and which ones do varies from run
// to run, so the maximum and even the median of the cycles jump between runs
// while their mean moves smoothly.
func (w *usage) finish() cost {
	close(w.stop)
	w.done.Wait()
	live, alloc, _ := w.read()
	user, sys := cpuTime()
	return cost{
		heapMB:  mean(append(w.cycles, float64(live))) / 1e6,
		allocMB: float64(alloc-w.alloc0) / 1e6,
		user:    user - w.user0,
		sys:     sys - w.sys0,
	}
}

// cpuTime is the process's user and system CPU time. Unlike wall time it
// leaves out the time the virtual machine's CPUs are stolen by its host.
func cpuTime() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}
