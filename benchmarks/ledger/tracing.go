package main

import (
	"context"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/obs"
)

// roundTrace collects one traced in-process round: the spans the engine
// already emits when its context carries a trace, delivered to an
// in-memory sink, plus the store steps and journal appends the benchmark
// times around its own calls.
type roundTrace struct {
	workers   int
	mu        sync.Mutex
	spans     []obs.SpanRecord
	serialIvs [][2]int64 // store create and finish, unix microseconds
	journalNS atomic.Int64
	counters  probeCounters
}

func newRoundTrace(workers int) *roundTrace { return &roundTrace{workers: workers} }

// context attaches a fresh trace and the round's sink to ctx.
func (rt *roundTrace) context(ctx context.Context) context.Context {
	return obs.ContextWithSink(obs.ContextWithTrace(ctx, obs.NewTraceID()), func(r obs.SpanRecord) {
		rt.mu.Lock()
		rt.spans = append(rt.spans, r)
		rt.mu.Unlock()
	})
}

// serial records a store step that began at start and ends now. While it
// runs no experiment can, so it blocks every worker slot.
func (rt *roundTrace) serial(start time.Time) {
	rt.mu.Lock()
	rt.serialIvs = append(rt.serialIvs, [2]int64{start.UnixMicro(), time.Now().UnixMicro()})
	rt.mu.Unlock()
}

// finalSpans drops the provisional zero-length records a span announces
// before it completes, keeping each span's final record.
func finalSpans(recs []obs.SpanRecord) []obs.SpanRecord {
	byID := make(map[string]obs.SpanRecord, len(recs))
	for _, r := range recs {
		if old, ok := byID[r.Span]; !ok || r.DurUS >= old.DurUS {
			byID[r.Span] = r
		}
	}
	out := make([]obs.SpanRecord, 0, len(byID))
	for _, r := range byID {
		out = append(out, r)
	}
	return out
}

// coverage returns the microseconds of [lo, hi) that the union of ivs
// covers.
func coverage(ivs [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv[1] <= end {
			continue
		}
		total += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return total
}

// attribution splits one traced in-process round's worker-slot time
// (wall x workers) and returns three shares of it: the time attributed to
// a layer, the time blocked on the prefix, and the cluster wait. Only leaf
// layers count as attributed: the prefix run and the store's create and
// finish steps, which block every slot, and each experiment's fork,
// execute, classify and journal steps, which fill one slot each. A
// cluster fan-out holds every slot until its last experiment ends; what
// it holds beyond those steps (slots idle at the cluster's end, and the
// engine's scheduling between experiments) is the cluster wait, which no
// leaf explains and which is therefore not attributed.
func (rt *roundTrace) attribution(start time.Time, wall float64) [3]float64 {
	lo := start.UnixMicro()
	hi := lo + int64(wall*1e6)
	blocking := append([][2]int64(nil), rt.serialIvs...)
	var prefixUS, clusterUS, leafUS int64
	for _, r := range finalSpans(rt.spans) {
		switch r.Name {
		case "engine.snapshot":
			prefixUS += r.DurUS
			blocking = append(blocking, [2]int64{r.StartUS, r.StartUS + r.DurUS})
		case "engine.cluster":
			clusterUS += r.DurUS
		case "engine.fork", "engine.execute", "engine.classify":
			leafUS += r.DurUS
		}
	}
	leaf := float64(leafUS) + float64(rt.journalNS.Load())/1e3
	w := float64(rt.workers)
	slots := wall * 1e6 * w
	return [3]float64{
		(float64(coverage(blocking, lo, hi))*w + leaf) / slots,
		float64(prefixUS) * w / slots,
		(float64(clusterUS)*w - leaf) / slots,
	}
}

// probeCounters are the process-wide counters read around traced rounds:
// the engine's fork, snapshot, phase and copy-on-write totals, and the
// runtime's GC totals.
type probeCounters struct {
	eng                       core.EngineCounters
	gcCPU, totalCPU, gcCycles float64
}

var runtimeProbes = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/gc/cycles/total:gc-cycles"}

func readProbeCounters() probeCounters {
	ms := make([]metrics.Sample, len(runtimeProbes))
	for i, n := range runtimeProbes {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return probeCounters{
		eng:      core.EngineStats(),
		gcCPU:    ms[0].Value.Float64(),
		totalCPU: ms[1].Value.Float64(),
		gcCycles: float64(ms[2].Value.Uint64()),
	}
}

// sub returns a - b for every counter the ledger reads.
func (a probeCounters) sub(b probeCounters) probeCounters {
	e, f := a.eng, b.eng
	return probeCounters{
		eng: core.EngineCounters{
			ForksCreated: e.ForksCreated - f.ForksCreated, ForksReused: e.ForksReused - f.ForksReused,
			SnapshotCaptures: e.SnapshotCaptures - f.SnapshotCaptures, SnapshotCaptureNanos: e.SnapshotCaptureNanos - f.SnapshotCaptureNanos,
			SnapshotRestores: e.SnapshotRestores - f.SnapshotRestores, SnapshotRestoreNanos: e.SnapshotRestoreNanos - f.SnapshotRestoreNanos,
			ForkNanos: e.ForkNanos - f.ForkNanos, ExecuteNanos: e.ExecuteNanos - f.ExecuteNanos, ClassifyNanos: e.ClassifyNanos - f.ClassifyNanos,
			COWRestores: e.COWRestores - f.COWRestores, COWFullRestores: e.COWFullRestores - f.COWFullRestores,
			COWBytesCopied: e.COWBytesCopied - f.COWBytesCopied, COWBytesAvoided: e.COWBytesAvoided - f.COWBytesAvoided,
		},
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU, gcCycles: a.gcCycles - b.gcCycles,
	}
}

// add returns a + b, as a - (0 - b).
func (a probeCounters) add(b probeCounters) probeCounters {
	return a.sub(probeCounters{}.sub(b))
}

// engineLayers reports the per-layer metrics that come from the counter
// deltas of the traced rounds.
func engineLayers(res *result, c probeCounters, exps, campaigns int) {
	e := c.eng
	n := float64(exps)
	res.set("core.fork_us_per_exp", float64(e.ForkNanos)/1e3/n)
	res.set("core.execute_us_per_exp", float64(e.ExecuteNanos)/1e3/n)
	res.set("core.classify_us_per_exp", float64(e.ClassifyNanos)/1e3/n)
	res.set("sim.restore_us_per_exp", float64(e.SnapshotRestoreNanos)/1e3/n)
	res.set("core.snapshots_per_campaign", float64(e.SnapshotCaptures)/float64(campaigns))
	if e.SnapshotCaptures > 0 {
		res.set("sim.capture_us_per_snapshot", float64(e.SnapshotCaptureNanos)/1e3/float64(e.SnapshotCaptures))
	}
	if e.COWRestores > 0 {
		res.set("sim.cow_full_restore_ratio", float64(e.COWFullRestores)/float64(e.COWRestores))
	}
	if moved := e.COWBytesCopied + e.COWBytesAvoided; moved > 0 {
		res.set("sim.cow_dirty_ratio", float64(e.COWBytesCopied)/float64(moved))
	}
	if forks := e.ForksCreated + e.ForksReused; forks > 0 {
		res.set("core.vessel_reuse_ratio", float64(e.ForksReused)/float64(forks))
	}
	if c.totalCPU > 0 {
		res.set("runtime.gc_cpu_frac", c.gcCPU/c.totalCPU)
	}
	res.set("runtime.gc_cycles_per_kexp", c.gcCycles*1000/n)
}

// tracedLayers reports what a run's traced rounds measured: the summed
// counter deltas, each round's attribution (attributed, prefix and
// cluster-wait shares), and the trace overhead against the untraced rounds
// of the same variants.
func tracedLayers(res *result, plain, traced []sample, counters []probeCounters, attr [][3]float64, campaigns int) {
	var total probeCounters
	exps := 0
	var att, pre, wait []float64
	for i, c := range counters {
		total = total.add(c)
		exps += traced[i].exps
		att, pre, wait = append(att, attr[i][0]), append(pre, attr[i][1]), append(wait, attr[i][2])
	}
	engineLayers(res, total, exps, campaigns)
	res.set("trace.attributed_frac", att...)
	res.set("core.prefix_frac", pre...)
	res.set("core.cluster_wait_frac", wait...)
	res.set("obs.trace_overhead_ratio", overheadRatio(plain, traced)...)
}

// overheadRatio pairs each traced round with the untraced round of the
// same variant and returns traced over untraced wall clock per pair.
func overheadRatio(plain, traced []sample) []float64 {
	walls := map[int]float64{}
	for _, r := range plain {
		walls[r.variant] = r.wall
	}
	var out []float64
	for _, r := range traced {
		if p, ok := walls[r.variant]; ok {
			out = append(out, r.wall/p)
		}
	}
	return out
}
