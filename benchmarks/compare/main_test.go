package main

import "testing"

func TestSkipReason(t *testing.T) {
	gated := Metric{Value: 2.2, Direction: "higher", MinCPUs: 4}
	for _, tc := range []struct {
		name    string
		m       Metric
		current map[string]float64
		want    string
	}{
		{"cpus missing", gated, map[string]float64{"speedup_x": 20},
			"not measured on this host: needs >=4 CPUs, artifacts report none"},
		{"too few cpus", gated, map[string]float64{"parallel_bench_cpus": 2},
			"not measured on this host: needs >=4 CPUs, artifacts report 2"},
		{"enough cpus", gated, map[string]float64{"parallel_bench_cpus": 8}, ""},
		{"unconditional", Metric{Value: 1, Direction: "lower"}, map[string]float64{}, ""},
	} {
		if got := skipReason(tc.m, tc.current); got != tc.want {
			t.Errorf("%s: skipReason = %q, want %q", tc.name, got, tc.want)
		}
	}
}
