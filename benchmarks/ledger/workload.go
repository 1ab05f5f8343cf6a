package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"gpufi/internal/store"
)

// workload is one named campaign mix. A round runs every campaign of the
// mix once. Each round of a run draws its fault lists from its own
// variant of the run's seed, so a run averages over many fault lists
// instead of timing one list again and again: what a campaign costs
// depends on where its faults land.
type workload struct {
	name   string
	served bool
	specs  func(seed int64, variant, workers int) []store.Spec
	// probeRuns sizes the served probe of an in-process workload's first
	// campaign (see servedLayerProbe): large enough that each of its
	// shards outlives one heartbeat interval.
	probeRuns int
}

// The workload mixes. README.md gives the CPU profile behind each choice.
var workloads = []*workload{
	{name: "step-heavy", probeRuns: 192, specs: func(seed int64, v, workers int) []store.Spec {
		return []store.Spec{
			campaign("HS", 2, "hs_step", "regfile", 48, seed, v, 0, workers),
			campaign("KM", 1, "km_assign", "regfile", 64, seed, v, 1, workers),
		}
	}},
	{name: "launch-heavy", probeRuns: 1920, specs: func(seed int64, v, workers int) []store.Spec {
		return []store.Spec{
			campaign("VA", 1, "va_add", "l1d", 160, seed, v, 0, workers),
			campaign("LUD", 1, "lud_update", "regfile", 64, seed, v, 1, workers),
			campaign("BP", 1, "bp_adjust", "l2", 160, seed, v, 2, workers),
		}
	}},
	{name: "served", served: true, specs: func(seed int64, v, _ int) []store.Spec {
		s := campaign("BP", 1, "bp_adjust", "regfile", 800, seed, v, 0, 1)
		s.Trace = true
		return []store.Spec{s}
	}},
}

// campaign builds one RTX2060 spec. The campaign seed derives from the
// workload seed, the round's variant and the campaign's place in the mix.
func campaign(app string, scale int, kernel, structure string, runs int, seed int64, variant, i, workers int) store.Spec {
	return store.Spec{App: app, Scale: scale, GPU: "RTX2060", Kernel: kernel, Structure: structure,
		Runs: runs, Seed: seed*1_000_000 + int64(variant)*10 + int64(i), Workers: workers}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// pinned holds each workload's run digest at seed 1, the default: the
// digests of the first minRounds variants' journals (and, on served,
// propagation traces), combined. A change that alters any journal or
// trace record, or the set of records, changes it. At every seed a run
// also checks that repeated variants reproduce their digests, and served
// checks its journal against an in-process run of the same spec.
var pinned = map[string]string{
	"step-heavy":   "fb6308b28fde4325ba3ec0eaade9beccc36311a32f1f685f88c4db406233cdbe",
	"launch-heavy": "c36ddae7445f005fc50693b59f970ddbee4ebfb6c7b28425b52c56afe7b2cd55",
	"served":       "99a7d29ab33f776b091af2d1d2a418e3c8789043988cf2d50e392fae8488220e",
}

const pinnedSeed = 1

// roundPlan maps a run's i-th measured round to its variant. A traced
// run measures each variant twice, untraced and then traced, so the
// trace overhead compares equal work.
func roundPlan(i int, trace bool) (variant int, traced bool) {
	if trace {
		return i / 2, i%2 == 1
	}
	return i, false
}

// maxFailedRounds is how many failed rounds end a run early. A run with
// a failed round is invalid already; more rounds would only delay its
// verdict, and a program that fails every round would otherwise never
// collect the rounds the run waits for.
const maxFailedRounds = 3

// measuring reports whether a run that started measuring at start takes
// another round: until its window has passed and it has minRounds rounds
// of each kind it reports, unless maxFailedRounds rounds have failed.
func measuring(start time.Time, opts options, plain, traced, failed int) bool {
	if failed >= maxFailedRounds {
		return false
	}
	return time.Since(start) < opts.seconds || plain < minRounds || (opts.trace && traced < minRounds)
}

// digestBook holds the first digest seen for each variant and checks
// every later round of that variant against it.
type digestBook map[int]string

func (b digestBook) check(res *result, variant int, got, what string) {
	if want, ok := b[variant]; ok {
		res.check(got == want, "%s: digest %s differs from variant %d's first digest %s", what, got, variant, want)
		return
	}
	b[variant] = got
}

// runDigest combines the digests of variants 0 .. minRounds-1, which
// every run measures.
func (b digestBook) runDigest() string {
	parts := make([]string, minRounds)
	for v := range parts {
		parts[v] = b[v]
	}
	return combine(parts)
}

// checkPinned compares a run's digest with the pinned one when the run
// uses the pinned seed.
func checkPinned(res *result, name string, seed int64, got string) {
	res.digest = got
	if seed != pinnedSeed {
		return
	}
	want, ok := pinned[name]
	res.check(ok && got == want, "%s: run digest %s at seed %d, pinned %q", name, got, seed, want)
}

// sample is what one measured round cost, read from outside the program:
// wall clock, process CPU time from getrusage, bytes allocated and the
// peak live heap from runtime/metrics, and the work done, read back from
// the journals the round wrote.
type sample struct {
	variant   int
	start     time.Time
	wall, cpu float64
	alloc     float64
	peakHeap  float64
	exps      int
	cycles    float64
}

// meter measures fn. Samples of the heap are taken every 2 ms, which is
// well below the length of the shortest round.
func meter(fn func() error) (sample, error) {
	var s sample
	probe := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(probe)
	alloc0 := probe[0].Value.Uint64()
	peak := probe[1].Value.Uint64()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		local := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				metrics.Read(local)
				peak = max(peak, local[0].Value.Uint64()) // read after wg.Wait
			}
		}
	}()
	cpu0, _ := cpuTime()
	s.start = time.Now()
	err := fn()
	s.wall = time.Since(s.start).Seconds()
	cpu1, _ := cpuTime()
	close(stop)
	wg.Wait()
	metrics.Read(probe)
	s.cpu = cpu1 - cpu0
	s.alloc = float64(probe[0].Value.Uint64() - alloc0)
	s.peakHeap = float64(max(peak, probe[1].Value.Uint64()))
	return s, err
}

// readJournalStats reads a journal and returns its experiment count and
// the simulated cycles behind it: each experiment's post-injection suffix
// (Cycles - Cycle) plus the fault-free prefix, which runs up to the
// latest injection cycle once per campaign.
func readJournalStats(b []byte) (journalStats, error) {
	var w journalStats
	var prefix uint64
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var rec struct {
			Type   string `json:"type"`
			Cycle  uint64 `json:"cycle"`
			Cycles uint64 `json:"cycles"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return w, fmt.Errorf("journal: %v", err)
		}
		if rec.Type != "exp" {
			continue
		}
		w.exps++
		w.inj = append(w.inj, rec.Cycle)
		if rec.Cycles > rec.Cycle {
			w.cycles += float64(rec.Cycles - rec.Cycle)
		}
		prefix = max(prefix, rec.Cycle)
	}
	w.cycles += float64(prefix)
	return w, sc.Err()
}

// endToEndMetrics turns measured rounds into the end-to-end metrics.
func endToEndMetrics(res *result, rounds []sample) {
	var eps, cps, cpu, alloc, heap []float64
	for _, s := range rounds {
		eps = append(eps, float64(s.exps)/s.wall)
		cps = append(cps, s.cycles/s.wall)
		alloc = append(alloc, s.alloc/float64(s.exps))
		heap = append(heap, s.peakHeap/(1<<20))
		if _, ok := cpuTime(); ok {
			cpu = append(cpu, 1000*s.cpu/float64(s.exps))
		}
	}
	res.set("experiments_per_s", eps...)
	res.set("sim_cycles_per_s", cps...)
	res.set("alloc_bytes_per_exp", alloc...)
	res.set("peak_heap_mb", heap...)
	if len(cpu) > 0 {
		res.set("cpu_ms_per_exp", cpu...)
	} else {
		res.skip("cpu_ms_per_exp", "getrusage is not available on "+runtime.GOOS)
	}
}

// readAll drains and closes rc.
func readAll(rc io.ReadCloser, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}
