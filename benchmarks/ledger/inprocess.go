package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/sim"
	"gpufi/internal/store"
)

const (
	// setupReps is how many times an in-process run repeats its set-up;
	// setup_s is the median. One set-up takes about 0.1 s and single
	// set-ups scatter by a third of their median within a run; a median
	// of 25 keeps that scatter out of the spread between runs.
	setupReps = 25
	// minRounds is the fewest measured rounds of each kind a run takes,
	// however short its window.
	minRounds = 3
)

// inproc runs a workload's campaigns in this process through store.Run,
// the path `gpufi -store` takes: journaled and fsync'd in batches.
type inproc struct {
	st      *store.Store
	wl      *workload
	seed    int64
	workers int
	profs   []*core.Profile // one per campaign of the mix; fault lists do not change them
}

// roundOut is one round's measurement and what its journals hold.
type roundOut struct {
	sample
	digest string
	work   []journalStats
}

// setupInProcess profiles each campaign's application and builds a
// device for it, reps times. It returns the last profiles, the set-up
// seconds of each repetition and the seconds spent in profiling alone.
func setupInProcess(ctx context.Context, specs []store.Spec, reps int) ([]*core.Profile, []float64, []float64, error) {
	var profs []*core.Profile
	var setup, profile []float64
	for r := 0; r < reps; r++ {
		profs = profs[:0]
		start := time.Now()
		var inProfile time.Duration
		for _, sp := range specs {
			cfg, err := sp.Config()
			if err != nil {
				return nil, nil, nil, err
			}
			t := time.Now()
			prof, err := core.ProfileApp(ctx, cfg.App, cfg.GPU)
			inProfile += time.Since(t)
			if err != nil {
				return nil, nil, nil, err
			}
			if _, err := sim.New(cfg.GPU); err != nil {
				return nil, nil, nil, err
			}
			profs = append(profs, prof)
		}
		setup = append(setup, time.Since(start).Seconds())
		profile = append(profile, inProfile.Seconds())
	}
	return profs, setup, profile, nil
}

// round runs every campaign of the mix once, then reads the journals back
// to count the work and digest it. A traced round (rt non-nil) runs the
// same store path through its exported parts, with a span sink and timed
// journal appends.
func (ip *inproc) round(ctx context.Context, res *result, tag string, variant int, rt *roundTrace) (*roundOut, error) {
	specs := ip.wl.specs(ip.seed, variant, ip.workers)
	ids := make([]string, len(specs))
	for i := range ids {
		ids[i] = fmt.Sprintf("r%s-%d", tag, i)
	}
	s, err := meter(func() error {
		for i, sp := range specs {
			var err error
			if rt != nil {
				err = runTracedCampaign(rt.context(ctx), ip.st, ids[i], sp, ip.profs[i], rt)
			} else {
				_, err = ip.st.Run(ctx, ids[i], sp, ip.profs[i], nil)
			}
			if !res.op(err) {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.variant = variant
	out := &roundOut{sample: s}
	var parts []string
	for i, id := range ids {
		b, err := readAll(ip.st.OpenLog(id))
		if !res.op(err) {
			return nil, err
		}
		rs, err := parseRecords(bytes.NewReader(b))
		if !res.op(err) {
			return nil, err
		}
		w, err := readJournalStats(b)
		if !res.op(err) {
			return nil, err
		}
		res.check(rs.dups == 0 && w.exps == specs[i].Runs,
			"%s: journal holds %d experiments (%d duplicated), want %d", id, w.exps, rs.dups, specs[i].Runs)
		out.exps += w.exps
		out.cycles += w.cycles
		out.work = append(out.work, w)
		parts = append(parts, rs.digest())
		os.RemoveAll(filepath.Join(ip.st.Dir(), id))
	}
	out.digest = combine(parts)
	return out, nil
}

// runTracedCampaign is store.Run for a fresh campaign, assembled from the
// store's exported parts so the journal appends and the store's own
// create and finish steps can be timed from outside.
func runTracedCampaign(ctx context.Context, st *store.Store, id string, spec store.Spec, prof *core.Profile, rt *roundTrace) error {
	t0 := time.Now()
	c, err := st.Create(id, spec)
	if err != nil {
		return err
	}
	defer c.Close()
	cfg, err := spec.Config()
	if err != nil {
		return err
	}
	cfg.Journal = func(e core.Experiment) error {
		t := time.Now()
		err := c.Append(e)
		rt.journalNS.Add(int64(time.Since(t)))
		return err
	}
	cfg.Quarantine = c.Quarantine
	if cfg.Trace {
		if err := c.EnableTraces(); err != nil {
			return err
		}
		cfg.TraceSink = c.AppendTrace
	}
	rt.serial(t0)
	r, err := core.RunCampaign(ctx, cfg, prof)
	if err != nil {
		return err
	}
	t1 := time.Now()
	err = c.Finish(c.MergedResult(r))
	rt.serial(t1)
	return err
}

// runInProcessWorkload is one run of step-heavy or launch-heavy.
func runInProcessWorkload(ctx context.Context, wl *workload, opts options) (*result, error) {
	res := newResult()
	ip := &inproc{wl: wl, seed: opts.seed, workers: runtime.NumCPU()}
	var err error
	if ip.st, err = store.Open(filepath.Join(opts.dir, "store")); err != nil {
		return nil, err
	}
	specs := wl.specs(opts.seed, 0, ip.workers)
	profs, setup, profile, err := setupInProcess(ctx, specs, setupReps)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup...)
	ip.profs = profs

	// The warm-up round fills the caches and lets lazy set-up finish. It
	// is not timed; the first measured round repeats its variant.
	book := digestBook{}
	warm, err := ip.round(ctx, res, "warm", 0, nil)
	if err != nil {
		return nil, err
	}
	book.check(res, 0, warm.digest, "warm-up round")

	var plain, traced []*roundOut
	var traces []*roundTrace
	start, failed := time.Now(), 0
	for i := 0; measuring(start, opts, len(plain), len(traced), failed); i++ {
		variant, tr := roundPlan(i, opts.trace)
		var rt *roundTrace
		var before probeCounters
		if tr {
			rt = newRoundTrace(ip.workers)
			before = readProbeCounters()
		}
		out, err := ip.round(ctx, res, fmt.Sprint(i), variant, rt)
		if err != nil {
			failed++
			continue
		}
		book.check(res, variant, out.digest, fmt.Sprintf("round %d", i))
		if rt == nil {
			plain = append(plain, out)
			continue
		}
		rt.counters = readProbeCounters().sub(before)
		traced = append(traced, out)
		traces = append(traces, rt)
	}
	checkPinned(res, wl.name, opts.seed, book.runDigest())
	if !opts.trace {
		endToEndMetrics(res, samplesOf(plain))
		return res, nil
	}
	res.set("core.profile_s", profile...)
	var counters []probeCounters
	var attr [][3]float64
	for i, rt := range traces {
		counters = append(counters, rt.counters)
		attr = append(attr, rt.attribution(traced[i].start, traced[i].wall))
	}
	tracedLayers(res, samplesOf(plain), samplesOf(traced), counters, attr, len(traces)*len(specs))
	if err := probeLayers(ctx, res, specs, profs, injOf(warm), opts); err != nil {
		return nil, err
	}
	// The in-process path has no HTTP layers; a short served run of the
	// mix's first campaign measures them with this workload's kernel.
	probe := specs[0]
	probe.Workers = 1
	probe.Runs = wl.probeRuns
	if err := servedLayerProbe(ctx, res, probe, opts); err != nil {
		return nil, err
	}
	return res, nil
}

// injOf returns each campaign's injection cycles from one round.
func injOf(r *roundOut) [][]uint64 {
	out := make([][]uint64, len(r.work))
	for i, w := range r.work {
		out[i] = w.inj
	}
	return out
}

func samplesOf(rounds []*roundOut) []sample {
	out := make([]sample, len(rounds))
	for i, r := range rounds {
		out[i] = r.sample
	}
	return out
}

// journalStats is the work a journal records.
type journalStats struct {
	exps   int
	cycles float64
	inj    []uint64 // injection cycle of each experiment
}
