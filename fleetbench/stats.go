package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, or 0 for an empty slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// tailPercentiles are the candidates for latency_tail_ms, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailOf returns the highest candidate percentile with at least ten
// samples beyond it, its value and that sample count.
func tailOf(sorted []time.Duration) (p float64, v time.Duration, beyond int) {
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
		if n := len(sorted) - 1 - rank; rank >= 0 && n >= 10 {
			return p, sorted[rank], n
		}
	}
	return 50, percentile(sorted, 50), len(sorted) / 2
}

func sortedDurations(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianDuration(d []time.Duration) time.Duration { return percentile(sortedDurations(d), 50) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
