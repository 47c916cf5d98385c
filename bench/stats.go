package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (p in 1..100) of
// xs; 0 for an empty sample. xs is not modified.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(p) / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailCandidates are the percentiles a tail metric may be reported at,
// highest first. They are deliberately coarse: a workload's sample count
// then sits well inside one band, so the frozen percentile of a metric
// does not flip when a change makes the timed phase a little faster.
var tailCandidates = []int{99, 90, 70, 50}

// tailPercentile is the rule the frozen tail percentiles were derived
// with: the highest candidate percentile that still leaves at least ten
// samples beyond it (p70 at 36 samples, p90 at 192, p99 at 1800).
func tailPercentile(n int) int {
	for _, p := range tailCandidates {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same "exclusive" method as Python's statistics.quantiles(n=4),
// which the acceptance check of the benchmark contract uses.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
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
