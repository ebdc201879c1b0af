package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile. A
// percentile resting on fewer is one or two outliers and moves from run to
// run, so it is not reported at all.
const minBeyond = 10

// percentile returns the q-th percentile (0 < q < 100) of samples by the
// nearest-rank method, and whether enough samples lie beyond it to report
// it. samples is not modified.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 || q <= 0 || q >= 100 {
		return 0, false
	}
	rank := int(math.Ceil(q / 100 * float64(n))) // 1-based nearest rank
	if n-rank < minBeyond {
		return 0, false
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], true
}

// median is the middle value of samples (mean of the two middle ones for an
// even count), 0 for none. samples is not modified.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// ratio is num/den, 0 when den is 0: a layer that did no work reports 0,
// never NaN or Inf, so the JSON line stays valid.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// coverFrac is the share of the available consumer time that the measured
// consumer-side self times account for: their sum over wall time × the
// number of consumers running in parallel. Near 1 means the layer
// breakdown explains the wall time; the rest is unmeasured harness or
// scheduler time.
func coverFrac(selfSeconds []float64, wallSeconds float64, consumers int) float64 {
	var sum float64
	for _, s := range selfSeconds {
		sum += s
	}
	return ratio(sum, wallSeconds*float64(consumers))
}

// tailSeconds is the time from the first of workers going idle to the last
// one finishing, given the end times of every cell a sweep ran. Once the
// queue is empty each worker finishes exactly its current cell, so the
// final cells of the workers are the last `workers` ends.
func tailSeconds(cellEnds []float64, workers int) float64 {
	if workers < 2 || len(cellEnds) < workers {
		return 0
	}
	sorted := append([]float64(nil), cellEnds...)
	sort.Float64s(sorted)
	return sorted[len(sorted)-1] - sorted[len(sorted)-workers]
}
