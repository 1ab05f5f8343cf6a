package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gpufi/internal/store"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json that
// must agree with this command.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json at the repository root: %v", err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %v", len(b.Workloads), names)
	}
	for i, w := range b.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, names[i])
		}
	}
	better := func(lower bool) string {
		if lower {
			return "lower"
		}
		return "higher"
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d.LowerBetter) || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v here", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d.LowerBetter) {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v here", i, m, d)
		}
	}
}

// TestSmokeEachWorkload runs every workload for a one-second window and
// checks the correctness gate and that every end-to-end metric is
// measured. Seed 1 also checks the pinned digests.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns for several seconds per workload")
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			opts := options{seed: pinnedSeed, seconds: time.Second, dir: t.TempDir()}
			res, err := run(context.Background(), wl, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.problems)
			}
			for _, d := range endToEnd {
				s, ok := res.metrics[d.Name]
				if !ok || !(s.Median > 0) {
					t.Errorf("%s not measured: %+v (%s)", d.Name, s, res.notMeasured[d.Name])
				}
			}
		})
	}
}

// TestFailingRoundsEndTheRun runs workloads whose campaigns fail after the
// first variant, with a window far longer than the test: the run must end
// after maxFailedRounds failed rounds and report them, not wait for rounds
// that never succeed.
func TestFailingRoundsEndTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns")
	}
	breakAfterFirst := func(s store.Spec, variant int) store.Spec {
		if variant > 0 {
			s.Structure = "no-such-structure"
		}
		return s
	}
	for _, wl := range []*workload{
		{name: "broken-in-process", probeRuns: 8, specs: func(seed int64, v, workers int) []store.Spec {
			return []store.Spec{breakAfterFirst(campaign("VA", 1, "va_add", "regfile", 16, seed, v, 0, workers), v)}
		}},
		{name: "broken-served", served: true, specs: func(seed int64, v, _ int) []store.Spec {
			return []store.Spec{breakAfterFirst(campaign("VA", 1, "va_add", "regfile", 16, seed, v, 0, 1), v)}
		}},
	} {
		t.Run(wl.name, func(t *testing.T) {
			opts := options{seed: 2, seconds: time.Hour, dir: t.TempDir()}
			res, err := run(context.Background(), wl, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed < maxFailedRounds {
				t.Fatalf("%d failed operations, want at least %d: %v", res.failed, maxFailedRounds, res.problems)
			}
			out := report(io.Discard, wl.name, opts, cohort{}, res, endToEnd)
			if out.Correct || out.Failed != res.failed {
				t.Fatalf("a run with failed rounds reported %+v", out)
			}
		})
	}
}
