// Command compare gates the CI benchmark steps against the committed
// baseline in benchmarks/baseline.json. It replaces the old hard-coded
// BENCH_OBS_ENFORCE / BENCH_FORK_ENFORCE thresholds: every gated metric
// lives in the baseline file with a direction, and a run fails when a
// metric regresses past the tolerance (default 15%).
//
// Only dimensionless ratios are gated (engine speedups, overhead ratios):
// they are stable across runner hardware, unlike raw nanoseconds, which
// the benchmark JSON artifacts still carry for human cross-commit
// comparison.
//
// Usage:
//
//	go run ./benchmarks/compare -baseline benchmarks/baseline.json BENCH_*.json
//	go run ./benchmarks/compare -baseline benchmarks/baseline.json -promote BENCH_*.json
//
// -promote rewrites the baseline's values from the current run (directions
// and tolerance are preserved); benchmarks/promote.sh wraps it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
)

// Baseline is the committed benchmark contract.
type Baseline struct {
	// Tolerance is the fractional regression allowed before the gate
	// fails (0.15 = 15%).
	Tolerance float64 `json:"tolerance"`
	// Metrics maps a metric name (a key in one of the benchmark JSON
	// artifacts) to its expected value and direction.
	Metrics map[string]Metric `json:"metrics"`
}

// Metric is one gated benchmark number.
type Metric struct {
	// Value is the promoted baseline measurement.
	Value float64 `json:"value"`
	// Direction is "higher" (bigger is better: speedups) or "lower"
	// (smaller is better: overhead ratios).
	Direction string `json:"direction"`
	// Tolerance, when positive, overrides the file-level tolerance for
	// this one metric — e.g. a hard ≤5% budget on tracing overhead while
	// engine speedups keep the looser default.
	Tolerance float64 `json:"tolerance,omitempty"`
	// Min, when positive, is an absolute floor on top of the relative
	// check: the run fails if the measured value dips below it no matter
	// what the baseline value drifted to. Used for contractual numbers
	// like "parallel stepping reaches >=1.8x at 4 workers".
	Min float64 `json:"min,omitempty"`
	// MinCPUs, when positive, makes the metric conditional on hardware:
	// it is checked only when the pooled artifacts report at least this
	// many CPUs under "parallel_bench_cpus". A laptop or single-core CI
	// leg cannot measure a 4-worker speedup, so the gate skips (with a
	// note) instead of failing on numbers the machine cannot produce.
	MinCPUs int `json:"min_cpus,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchmarks/compare: ")
	basePath := flag.String("baseline", "benchmarks/baseline.json", "committed baseline file")
	promote := flag.Bool("promote", false, "rewrite the baseline's values from the current artifacts")
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("usage: compare [-promote] [-baseline file] BENCH_*.json...")
	}

	raw, err := os.ReadFile(*basePath)
	if err != nil {
		log.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		log.Fatalf("%s: %v", *basePath, err)
	}
	if base.Tolerance <= 0 {
		base.Tolerance = 0.15
	}

	// Pool every metric of every artifact; later files win on key clashes
	// (the artifacts' key sets are disjoint in practice).
	current := map[string]float64{}
	for _, path := range flag.Args() {
		raw, err := os.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		for k, v := range m {
			if f, ok := v.(float64); ok {
				current[k] = f
			}
		}
	}

	names := make([]string, 0, len(base.Metrics))
	for name := range base.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)

	if *promote {
		for _, name := range names {
			m := base.Metrics[name]
			if reason := skipReason(m, current); reason != "" {
				fmt.Printf("%-22s kept at %.4f (%s)\n", name, m.Value, reason)
				continue
			}
			got, ok := current[name]
			if !ok {
				log.Fatalf("metric %q not present in the given artifacts; run every benchmark before promoting", name)
			}
			fmt.Printf("%-22s %.4f -> %.4f\n", name, m.Value, got)
			m.Value = got
			base.Metrics[name] = m
		}
		out, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*basePath, append(out, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("promoted %d metric(s) into %s\n", len(names), *basePath)
		return
	}

	failed := 0
	for _, name := range names {
		m := base.Metrics[name]
		if reason := skipReason(m, current); reason != "" {
			fmt.Printf("skip %-22s %s\n", name, reason)
			continue
		}
		got, ok := current[name]
		if !ok {
			log.Printf("FAIL %s: metric missing from the benchmark artifacts", name)
			failed++
			continue
		}
		tol := base.Tolerance
		if m.Tolerance > 0 {
			tol = m.Tolerance
		}
		var bad bool
		var bound float64
		switch m.Direction {
		case "higher":
			bound = m.Value * (1 - tol)
			bad = got < bound
			if m.Min > 0 && bound < m.Min {
				bound = m.Min // the absolute floor is the binding constraint
			}
			bad = bad || got < bound
		case "lower":
			bound = m.Value * (1 + tol)
			bad = got > bound
		default:
			log.Fatalf("metric %q: unknown direction %q (want \"higher\" or \"lower\")", name, m.Direction)
		}
		status := "ok  "
		if bad {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%s %-22s baseline %.4f, got %.4f (%s is better, tolerance %.0f%%, bound %.4f)\n",
			status, name, m.Value, got, m.Direction, tol*100, bound)
	}
	if failed > 0 {
		log.Fatalf("%d metric(s) regressed past tolerance from %s; "+
			"if intentional, re-baseline with benchmarks/promote.sh",
			failed, *basePath)
	}
	fmt.Println("all benchmark metrics within tolerance")
}

// skipReason returns why a hardware-conditional metric cannot be measured
// from the pooled artifacts — too few CPUs, or no "parallel_bench_cpus"
// at all, for a parallel speedup — or "" when the metric is checked.
func skipReason(m Metric, current map[string]float64) string {
	if m.MinCPUs <= 0 {
		return ""
	}
	cpus, ok := current["parallel_bench_cpus"]
	if ok && int(cpus) >= m.MinCPUs {
		return ""
	}
	report := "none"
	if ok {
		report = fmt.Sprintf("%.0f", cpus)
	}
	return fmt.Sprintf("not measured on this host: needs >=%d CPUs, artifacts report %s", m.MinCPUs, report)
}
