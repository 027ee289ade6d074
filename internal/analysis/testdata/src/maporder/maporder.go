// Package maporder is golden-test input: each "want" comment marks a
// line the maporder analyzer must flag, everything else must stay
// clean.
package maporder

import (
	"fmt"
	"sort"
)

func collectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to keys during map iteration"
	}
	return keys
}

func collectSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func collectIndexedSorted(sets []map[int]bool) [][]int {
	out := make([][]int, len(sets))
	for i, set := range sets {
		for j := range set {
			out[i] = append(out[i], j)
		}
		sort.Ints(out[i])
	}
	return out
}

func modalNoTieBreak(counts map[int]int) int {
	best, bestN := 0, -1
	for v, n := range counts {
		if n > bestN { // want "without an ordered tie-break"
			best, bestN = v, n
		}
	}
	return best
}

func modalTieBreak(counts map[int]int) int {
	best, bestN := 0, -1
	for v, n := range counts {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

func printDuring(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "emits output in nondeterministic order"
	}
}

func sendDuring(m map[string]int, ch chan<- string) {
	for k := range m {
		ch <- k // want "channel send during map iteration"
	}
}

func copyAndCount(m map[string]int) (map[string]int, int) {
	dst := make(map[string]int, len(m))
	total := 0
	for k, v := range m {
		dst[k] = v
		total += v
	}
	return dst, total
}

func sumFloats(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want "floating-point += into total during map iteration"
	}
	return total
}

func scaleFloats(m map[string]float64, out []float64) {
	for _, v := range m {
		out[0] *= v // want "floating-point *= into out[0] during map iteration"
	}
}

func addFloatsPerKey(m map[string]float64, sums map[string]float64) {
	for k, v := range m {
		sums[k] += v
	}
}

func sumFloatsPerEntry(m map[string][]float64) map[string]float64 {
	sums := make(map[string]float64, len(m))
	for k, vs := range m {
		var s float64
		for _, v := range vs {
			s += v
		}
		sums[k] = s
	}
	return sums
}
