package main

import (
	"math"
	"sort"
)

// summary is the robust description of one metric's samples within a run:
// the median with its quartiles and the sample count, plus the highest
// percentile that still has at least ten samples beyond it.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Pct names the reported tail percentile (0 when fewer than 11
	// samples leave no percentile with ten samples beyond it).
	Pct  float64 `json:"pct,omitempty"`
	PVal float64 `json:"pval,omitempty"`
}

// quantiles returns the n-1 cut points dividing sorted-or-not xs into n
// groups, with the same "exclusive" method as Python's
// statistics.quantiles(xs, n=n), which is how the benchmark's spread is
// judged. It needs at least two samples.
func quantiles(xs []float64, n int) []float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	m := len(d)
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		} else if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*n
		out = append(out, (d[j-1]*float64(n-delta)+d[j]*float64(delta))/float64(n))
	}
	return out
}

// median returns the middle value (the mean of the two middle values for
// an even count). It returns NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	m := len(d)
	if m%2 == 1 {
		return d[m/2]
	}
	return (d[m/2-1] + d[m/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d[rank(len(d), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples;
// the tolerance keeps decimal percentiles such as 99.9 from rounding up
// a rank.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-6)), 1), n)
}

// tailPercentile picks the highest of the usual reporting percentiles
// that leaves at least ten samples beyond it; ok is false when the sample
// is too small for any of them.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if n-rank(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// summarize describes xs; a metric where lower is better reports its
// upper tail, one where higher is better its lower tail.
func summarize(xs []float64, lowerBetter bool) summary {
	s := summary{N: len(xs), Median: median(xs)}
	switch len(xs) {
	case 0:
		return s
	case 1:
		s.Q1, s.Q3 = xs[0], xs[0]
	default:
		q := quantiles(xs, 4)
		s.Q1, s.Q3 = q[0], q[2]
	}
	if p, ok := tailPercentile(len(xs)); ok {
		s.Pct = p
		if lowerBetter {
			s.PVal = percentile(xs, p)
		} else {
			s.PVal = percentile(xs, 100-p)
		}
	}
	return s
}
