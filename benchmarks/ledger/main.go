// Command ledger is the campaign ledger, the repository's benchmark. It
// prices the unit a gpuFI-4 user pays for, one injection experiment
// simulated, classified and durably journaled, on three workloads, and it
// attributes that cost to the simulator's layers in a separate traced run.
// Every layer is measured from outside, through each package's exported
// API; the program under test carries no benchmark instrumentation.
//
// Run it from the root of a checkout:
//
//	bash benchmarks/ledger/run.sh --workload step-heavy --seed 1 --seconds 20 --trace 0
//	bash benchmarks/ledger/run.sh --workload served --trace 1 --record benchmarks/ledger/trajectory.jsonl
//	bash benchmarks/ledger/run.sh compare --baseline base.jsonl --latest latest.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md in this directory
// explains the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share by which an end-to-end metric may get worse before a comparison
// fails; per-layer metrics have none.
type metricDef struct {
	Name        string
	Unit        string
	LowerBetter bool
	Bound       float64
}

// endToEnd are the untraced metrics a user of the system sees; each is a
// median over the run's measurement rounds.
var endToEnd = []metricDef{
	{"experiments_per_s", "1/s", false, 0.25},
	{"sim_cycles_per_s", "cycles/s", false, 0.25},
	{"cpu_ms_per_exp", "ms", true, 0.25},
	{"alloc_bytes_per_exp", "B", true, 0.10},
	{"peak_heap_mb", "MB", true, 0.15},
	{"setup_s", "s", true, 0.25},
}

// perLayer are the traced run's layer metrics. README.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"isa.eval_alu_ns", "ns", true, 0},
	{"sim.step_cycles_per_s", "cycles/s", false, 0},
	{"sim.launches_per_exp", "count", true, 0},
	{"sim.parallel_prefix_speedup", "x", false, 0},
	{"sim.device_new_ms", "ms", true, 0},
	{"sim.newfork_ms", "ms", true, 0},
	{"sim.refork_us", "us", true, 0},
	{"sim.capture_us", "us", true, 0},
	{"sim.restore_us_per_exp", "us", true, 0},
	{"sim.capture_us_per_snapshot", "us", true, 0},
	{"sim.cow_full_restore_ratio", "ratio", true, 0},
	{"sim.cow_dirty_ratio", "ratio", true, 0},
	{"cache.flush_us_per_l1", "us", true, 0},
	{"cache.valid_line_ratio", "ratio", false, 0},
	{"core.profile_s", "s", true, 0},
	{"core.fork_us_per_exp", "us", true, 0},
	{"core.execute_us_per_exp", "us", true, 0},
	{"core.classify_us_per_exp", "us", true, 0},
	{"core.vessel_reuse_ratio", "ratio", false, 0},
	{"core.snapshots_per_campaign", "count", true, 0},
	{"core.prefix_frac", "ratio", true, 0},
	{"core.cluster_wait_frac", "ratio", true, 0},
	{"store.journal_append_us", "us", true, 0},
	{"store.journal_sync_ms", "ms", true, 0},
	{"store.wal_appendsync_ms", "ms", true, 0},
	{"shard.claim_ms", "ms", true, 0},
	{"shard.journal_post_ms", "ms", true, 0},
	{"shard.heartbeat_ms", "ms", true, 0},
	{"shard.ingest_ms_per_batch", "ms", true, 0},
	{"shard.batches", "count", true, 0},
	{"shard.records_duped", "count", true, 0},
	{"shard.reissued", "count", true, 0},
	{"shard.late_batches", "count", true, 0},
	{"service.submit_ms", "ms", true, 0},
	{"service.status_ms", "ms", true, 0},
	{"service.queue_s", "s", true, 0},
	{"service.requests_per_exp", "count", true, 0},
	{"http.overhead_ms_per_req", "ms", true, 0},
	{"runtime.gc_cpu_frac", "ratio", true, 0},
	{"runtime.gc_cycles_per_kexp", "count", true, 0},
	{"obs.trace_overhead_ratio", "ratio", true, 0},
	{"trace.attributed_frac", "ratio", false, 0},
}

// result accumulates one run: metric samples, metrics the host cannot
// measure, and the operation tally behind error_rate.
type result struct {
	metrics     map[string]summary
	notMeasured map[string]string
	attempted   int
	failed      int
	problems    []string
	digest      string
}

func newResult() *result {
	return &result{metrics: map[string]summary{}, notMeasured: map[string]string{}}
}

// set records a metric from its samples.
func (r *result) set(name string, samples ...float64) {
	r.metrics[name] = summarize(samples, lowerBetter(name))
}

// skip records that the host cannot measure a metric, and why. A skipped
// metric is printed as such and left out of the result; it is never
// reported as a zero.
func (r *result) skip(name, reason string) { r.notMeasured[name] = reason }

// op tallies one operation; a non-nil error counts as a failure.
func (r *result) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
		return false
	}
	return true
}

// check tallies one correctness comparison.
func (r *result) check(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf(format, args...))
}

func lowerBetter(name string) bool {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Name == name {
			return d.LowerBetter
		}
	}
	return true
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // temporary directory for campaign stores
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload: step-heavy, launch-heavy or served")
		seed    = flag.Int64("seed", 1, "workload seed; campaign seeds derive from it")
		seconds = flag.Int("seconds", 25, "measurement window in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		record  = flag.String("record", "", "append the run's record to this trajectory file")
	)
	flag.Parse()
	wl, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "ledger: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	// Campaign stores live under the checkout's build directory, next to
	// the build, so a run writes nowhere else.
	workDir := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(workDir, "ledger-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	opts := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, dir: dir}
	res, err := run(context.Background(), wl, opts)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	coh := hostCohort(workDir)
	out := report(os.Stdout, wl.name, opts, coh, res, defs)
	if *record != "" {
		rec := runRecord{
			Time: time.Now().UTC().Format(time.RFC3339), Workload: wl.name, Seed: opts.seed,
			Seconds: *seconds, Trace: opts.trace, Cohort: coh,
			Valid: res.failed == 0, Digest: res.digest, Metrics: res.metrics,
		}
		if err := appendRecord(*record, rec); err != nil {
			fmt.Fprintln(os.Stderr, "ledger:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run dispatches one workload run.
func run(ctx context.Context, wl *workload, opts options) (*result, error) {
	if wl.served {
		return runServedWorkload(ctx, wl, opts)
	}
	return runInProcessWorkload(ctx, wl, opts)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints every metric by name with its unit, sample count and
// spread, then the correctness verdict, and returns the result object.
func report(w io.Writer, name string, opts options, c cohort, res *result, defs []metricDef) jsonResult {
	fmt.Fprintf(w, "workload %s  seed %d  window %v  trace %v\n", name, opts.seed, opts.seconds, opts.trace)
	fmt.Fprintf(w, "cohort   %s commit=%s\n", c.key(), c.Commit)
	out := jsonResult{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		s, ok := res.metrics[d.Name]
		if !ok || math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
			reason := res.notMeasured[d.Name]
			if reason == "" {
				reason = "no samples were taken"
			}
			fmt.Fprintf(w, "%-28s not measured on this host: %s\n", d.Name, reason)
			continue
		}
		tail := ""
		if s.Pct > 0 {
			tail = fmt.Sprintf("  p%g %.6g", s.Pct, s.PVal)
		}
		fmt.Fprintf(w, "%-28s %14.6g %-8s n=%d  q1 %.6g  q3 %.6g%s\n",
			d.Name, s.Median, d.Unit, s.N, s.Q1, s.Q3, tail)
		out.Metrics[d.Name] = jsonMetric{Value: s.Median, Unit: d.Unit}
	}
	errRate := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Fprintf(w, "error_rate %.6g (%d failed of %d operations)\n", errRate, res.failed, res.attempted)
	for _, p := range res.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	if res.digest != "" {
		fmt.Fprintln(w, "digest", res.digest)
	}
	return out
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	basePath := fs.String("baseline", "", "trajectory file with the baseline runs")
	latestPath := fs.String("latest", "", "trajectory file with the latest runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rows, err := compareFiles(*basePath, *latestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger compare:", err)
		return 2
	}
	printComparison(os.Stdout, rows)
	worse := 0
	for _, r := range rows {
		if r.RegressionPct > 100*r.Bound {
			fmt.Printf("regression: %s %s worse by %.2f%%, bound %.0f%%\n", r.Workload, r.Metric, r.RegressionPct, 100*r.Bound)
			worse++
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}

func compareFiles(basePath, latestPath string) ([]comparison, error) {
	base, err := readRecords(basePath)
	if err != nil {
		return nil, err
	}
	latest, err := readRecords(latestPath)
	if err != nil {
		return nil, err
	}
	return compareRecords(base, latest)
}
