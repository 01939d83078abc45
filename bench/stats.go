package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice, 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps 99.9 % of 1000 at rank 999 despite binary fractions.
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median sorts vs in place and returns its middle value (the mean of the
// two middle values for an even count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median — the spread rule the benchmark contract and
// -compare use. Quartiles follow Python's statistics.quantiles(vs, n=4)
// (the "exclusive" method), so the figure matches what the driver
// computes; fewer than two values have no spread.
func quartileSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// windowCount picks how many equal windows a run's latency samples are
// split into for windowP99: about a thousand samples per window, so each
// window's 99th percentile has ten samples beyond it, but at least three
// windows and at most fifteen.
func windowCount(samples int) int {
	return max(3, min(15, samples/1000))
}

// windowP99 returns the median over windows of each window's 99th
// percentile. A stall that the sandbox, not the system, caused lands in one
// window and moves that window's tail only — over a whole run one such
// stall decides the 99th percentile by itself. A tail the system produces
// all the time is in every window and survives the median.
func windowP99(windows [][]float64) float64 {
	var p99s []float64
	for _, w := range windows {
		if len(w) > 0 {
			sort.Float64s(w)
			p99s = append(p99s, percentile(w, 99))
		}
	}
	return median(p99s)
}
