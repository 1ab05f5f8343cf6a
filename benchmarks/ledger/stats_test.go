package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected cut points are what Python's statistics.quantiles returns
// for the same input, the definition the benchmark's spread is judged by.
func TestQuantilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		n    int
		want []float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 4, []float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1, 2}, 4, []float64{1, 2, 3.5}},
		{[]float64{5, 1}, 4, []float64{0, 3, 6}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 10, []float64{1.2, 2.4, 3.6, 4.8, 6, 7.2, 8.4, 9.6, 10.8}},
	}
	for _, c := range cases {
		got := quantiles(c.xs, c.n)
		if len(got) != len(c.want) {
			t.Fatalf("quantiles(%v, %d) = %v, want %v", c.xs, c.n, got, c.want)
		}
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Errorf("quantiles(%v, %d) = %v, want %v", c.xs, c.n, got, c.want)
				break
			}
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN, never zero")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{10, 0, false}, {20, 50, true}, {40, 75, true}, {100, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true}} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeTailFollowsDirection(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	lower := summarize(xs, true)
	higher := summarize(xs, false)
	if lower.Pct != 75 || lower.PVal != 30 {
		t.Errorf("lower-is-better tail = p%v %v, want p75 30", lower.Pct, lower.PVal)
	}
	if higher.PVal != 10 {
		t.Errorf("higher-is-better tail = %v, want the 25th percentile 10", higher.PVal)
	}
	if lower.N != 40 || lower.Median != 20.5 || lower.Q1 != 10.25 || lower.Q3 != 30.75 {
		t.Errorf("summary = %+v", lower)
	}
}
