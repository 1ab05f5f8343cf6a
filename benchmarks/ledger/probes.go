package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/isa"
	"gpufi/internal/sim"
	"gpufi/internal/store"
)

// evalSink keeps the ISA probe's results alive.
var evalSink uint32

// probeISA times isa.EvalALU over every opcode it evaluates, with seeded
// operands. The benchmark kernels' binaries are not reachable through the
// exported API, so the mix weights each ALU and SFU opcode equally.
func probeISA(res *result, seed int64) {
	var ops []isa.Op
	for op := 0; op < 256; op++ {
		if _, _, ok := isa.EvalALU(isa.Op(op), 0, 1, 2, 3, false); ok {
			ops = append(ops, isa.Op(op))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	operands := make([][3]uint32, 1024)
	for i := range operands {
		operands[i] = [3]uint32{rng.Uint32(), rng.Uint32(), rng.Uint32()}
	}
	const evals = 1 << 20
	var ns []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i := 0; i < evals; i++ {
			o := operands[i&1023]
			v, p, _ := isa.EvalALU(ops[i%len(ops)], isa.Cond(i&3), o[0], o[1], o[2], i&1 == 0)
			if p {
				v++
			}
			evalSink += v
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/evals)
	}
	res.set("isa.eval_alu_ns", ns...)
}

// simProbe is what probeSim measured for one campaign's application.
type simProbe struct {
	deviceNewMS, stepCPS, serialS, parallelS float64
	captureUS, newforkMS, reforkUS, flushUS  float64
	validLines, lines                        int
	launches                                 []sim.LaunchResult
}

// probeSim measures the simulator's layers for one campaign through the
// sim and cache packages' exported API: device construction, fault-free
// stepping (serial and with parallel core stepping), snapshot capture at
// the middle of the target kernel's first invocation, fresh and reused
// forks restored from that snapshot, and the kernel-end L1 flush of each
// core of such a fork.
func probeSim(spec store.Spec, prof *core.Profile) (*simProbe, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	p := &simProbe{}
	var dev, step, serial, par []float64
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		if _, err := sim.New(cfg.GPU); err != nil {
			return nil, err
		}
		dev = append(dev, ms(time.Since(t)))
	}
	for rep := 0; rep < 3; rep++ {
		g, _ := sim.New(cfg.GPU)
		t := time.Now()
		if _, err := cfg.App.Run(g); err != nil {
			return nil, err
		}
		d := time.Since(t).Seconds()
		serial = append(serial, d)
		step = append(step, float64(g.Cycle())/d)
		p.launches = g.Launches()
	}
	if runtime.NumCPU() >= 2 {
		for rep := 0; rep < 3; rep++ {
			g, _ := sim.New(cfg.GPU)
			g.SetParallelCores(runtime.NumCPU())
			t := time.Now()
			if _, err := cfg.App.Run(g); err != nil {
				return nil, err
			}
			par = append(par, time.Since(t).Seconds())
		}
	}
	p.deviceNewMS, p.stepCPS, p.serialS, p.parallelS = median(dev), median(step), median(serial), median(par)

	ks := prof.Kernels[spec.Kernel]
	if ks == nil || len(ks.Windows) == 0 {
		return nil, fmt.Errorf("profile of %s has no window for kernel %s", spec.App, spec.Kernel)
	}
	w := ks.Windows[0]
	mid := w.Start + (w.End-w.Start)/2
	g, _ := sim.New(cfg.GPU)
	g.EnableRecording()
	var snap *sim.Snapshot
	var capture []float64
	g.SnapshotAt([]uint64{mid}, func(s *sim.Snapshot) error {
		snap = s
		for rep := 0; rep < 3; rep++ {
			t := time.Now()
			g.Snapshot()
			capture = append(capture, us(time.Since(t)))
		}
		return sim.ErrReplayStop
	})
	if _, err := cfg.App.Run(g); !errors.Is(err, sim.ErrReplayStop) {
		return nil, fmt.Errorf("snapshot run of %s: %v", spec.App, err)
	}
	var newfork, refork, flush []float64
	var fork *sim.GPU
	for rep := 0; rep < 3; rep++ {
		t := time.Now()
		fork = sim.NewFork(snap)
		fork.Restore(snap)
		newfork = append(newfork, ms(time.Since(t)))
	}
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		fork.Refork(snap)
		fork.Restore(snap)
		refork = append(refork, us(time.Since(t)))
		if rep >= 2 {
			continue
		}
		for i := 0; i < cfg.GPU.SMs; i++ {
			c := fork.CoreL1D(i)
			p.validLines += c.ValidLines()
			p.lines += c.Geometry().Lines()
			t := time.Now()
			c.Flush()
			flush = append(flush, us(time.Since(t)))
		}
	}
	p.captureUS, p.newforkMS, p.reforkUS, p.flushUS = median(capture), median(newfork), median(refork), median(flush)
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// probeLayers reports the micro-probed layer metrics of a workload: each
// is the mean, over the workload's campaigns, of that campaign's median.
func probeLayers(ctx context.Context, res *result, specs []store.Spec, profs []*core.Profile, work [][]uint64, opts options) error {
	probeISA(res, opts.seed)
	var ps []*simProbe
	for i, sp := range specs {
		p, err := probeSim(sp, profs[i])
		if err != nil {
			return err
		}
		ps = append(ps, p)
	}
	mean := func(f func(*simProbe) float64) float64 {
		var s float64
		for _, p := range ps {
			s += f(p)
		}
		return s / float64(len(ps))
	}
	res.set("sim.device_new_ms", mean(func(p *simProbe) float64 { return p.deviceNewMS }))
	res.set("sim.step_cycles_per_s", mean(func(p *simProbe) float64 { return p.stepCPS }))
	res.set("sim.capture_us", mean(func(p *simProbe) float64 { return p.captureUS }))
	res.set("sim.newfork_ms", mean(func(p *simProbe) float64 { return p.newforkMS }))
	res.set("sim.refork_us", mean(func(p *simProbe) float64 { return p.reforkUS }))
	res.set("cache.flush_us_per_l1", mean(func(p *simProbe) float64 { return p.flushUS }))
	var valid, lines int
	for _, p := range ps {
		valid += p.validLines
		lines += p.lines
	}
	res.set("cache.valid_line_ratio", float64(valid)/float64(lines))
	if runtime.NumCPU() < 2 {
		res.skip("sim.parallel_prefix_speedup", fmt.Sprintf("parallel core stepping needs at least 2 CPUs, the host has %d", runtime.NumCPU()))
	} else {
		var serial, par float64
		for _, p := range ps {
			serial += p.serialS
			par += p.parallelS
		}
		res.set("sim.parallel_prefix_speedup", serial/par)
	}
	// A fork simulates every launch that ends at or after its injection
	// cycle; earlier launches are replayed from the recording.
	var launches, exps int
	for i, p := range ps {
		for _, c := range work[i] {
			exps++
			for _, l := range p.launches {
				if l.EndCycle >= c {
					launches++
				}
			}
		}
	}
	if exps > 0 {
		res.set("sim.launches_per_exp", float64(launches)/float64(exps))
	}
	return probeStore(res, opts.dir)
}

// probeStore times the durable store's primitives on the filesystem the
// campaign stores use: a journal append without fsync, a journal flush
// plus fsync of one default batch, and one control-WAL AppendSync.
func probeStore(res *result, dir string) error {
	st, err := store.Open(filepath.Join(dir, "probe"))
	if err != nil {
		return err
	}
	st.BatchSize = 1 << 30 // appends alone; syncs are timed explicitly
	spec := campaign("VA", 1, "va_add", "regfile", 1<<20, 1, 0, 0, 1)
	c, err := st.Create("append", spec)
	if err != nil {
		return err
	}
	defer c.Close()
	exp := core.Experiment{Cycle: 1200, Bits: []int64{17}, Effect: "Masked", Cycles: 1685, Injected: true}
	var appendUS, syncMS []float64
	const perBatch = 1000
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		for i := 0; i < perBatch; i++ {
			exp.ID = rep*perBatch + i
			if err := c.Append(exp); err != nil {
				return err
			}
		}
		appendUS = append(appendUS, us(time.Since(t))/perBatch)
	}
	res.set("store.journal_append_us", appendUS...)
	if fs := fsType(st.Dir()); fs == "tmpfs" {
		reason := "the store directory is on tmpfs, where fsync does nothing"
		res.skip("store.journal_sync_ms", reason)
		res.skip("store.wal_appendsync_ms", reason)
		return nil
	}
	next := 5 * perBatch
	for rep := 0; rep < 20; rep++ {
		for i := 0; i < store.DefaultBatchSize; i++ {
			exp.ID = next
			next++
			if err := c.Append(exp); err != nil {
				return err
			}
		}
		t := time.Now()
		if err := c.Sync(); err != nil {
			return err
		}
		syncMS = append(syncMS, ms(time.Since(t)))
	}
	res.set("store.journal_sync_ms", syncMS...)
	wc, err := st.Create("wal", spec)
	if err != nil {
		return err
	}
	wc.Close()
	_, _, wal, err := st.OpenControlWAL("wal")
	if err != nil {
		return err
	}
	defer wal.Close()
	var walMS []float64
	for rep := 0; rep < 20; rep++ {
		t := time.Now()
		if err := wal.AppendSync(store.ControlRecord{Kind: store.CtlRenew, Shard: "s0", Lease: "l0", Epoch: int64(rep + 1)}); err != nil {
			return err
		}
		walMS = append(walMS, ms(time.Since(t)))
	}
	res.set("store.wal_appendsync_ms", walMS...)
	return nil
}
