package main

import (
	"math"
	"sort"
)

// tailSupport is how many samples must lie beyond a reported
// percentile for it to be more than one outlier's opinion.
const tailSupport = 10

// supportedQuantile lowers q until at least tailSupport of the n
// samples lie beyond it; it never goes under the median.
func supportedQuantile(n int, q float64) float64 {
	if n <= 0 {
		return q
	}
	if best := float64(n-tailSupport) / float64(n); q > best {
		q = best
	}
	return math.Max(q, 0.5)
}

// quantile returns the nearest-rank q-quantile of an ascending slice:
// exactly ceil(q·n)-1 samples lie strictly before it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median of an unsorted slice (mean of the middle pair when even); it
// sorts a copy.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// segmentMedian is noise rule 1: split samples into segments by their
// timestamp, take pick(segment) on each, and report the median of the
// per-segment values. One stall then moves one segment's value, not
// the run's. Empty segments are skipped.
func segmentMedian(at, vals []float64, from, to float64, pick func(sorted []float64) float64) (value float64, minSamples int) {
	segs := make([][]float64, segments)
	width := (to - from) / segments
	for i, t := range at {
		if t < from || t >= to {
			continue
		}
		k := int((t - from) / width)
		if k >= segments {
			k = segments - 1
		}
		segs[k] = append(segs[k], vals[i])
	}
	var picks []float64
	minSamples = -1
	for _, s := range segs {
		if len(s) == 0 {
			continue
		}
		sort.Float64s(s)
		picks = append(picks, pick(s))
		if minSamples < 0 || len(s) < minSamples {
			minSamples = len(s)
		}
	}
	if minSamples < 0 {
		minSamples = 0
	}
	return median(picks), minSamples
}

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(vals, n=4) gives them (exclusive method) — the
// driver judges spreads with that function, so calibration does too.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
