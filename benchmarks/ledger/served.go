package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/obs"
	"gpufi/internal/service"
	"gpufi/internal/shard"
	"gpufi/internal/store"
)

// The served stack's deployment settings. Workers poll for work every
// 5 ms, as the repository's own multi-node tests do, so a new campaign's
// first claim is not a half-second poll away. A 1.5 s lease makes every
// shard long enough to send heartbeats, and 4 shards per campaign give
// each worker two. Set-up is timed on 15 fresh stacks, each running a
// 16-experiment set-up campaign.
const (
	workerPoll        = 5 * time.Millisecond
	leaseTTL          = 1500 * time.Millisecond
	shardsPerCampaign = 4
	servedSetupReps   = 15
	servedSetupRuns   = 16
)

// httpTimer is the transport of every client in the served workload, the
// workers' and the benchmark's own, and wraps the server's handler. It
// counts every request as an operation and every transport error or
// unexpected status as a failed one, notes the first granted claim (the
// end of set-up), and in traced rounds times each request on both sides.
type httpTimer struct {
	base        *http.Transport
	detail      atomic.Bool
	closing     atomic.Bool
	attempted   atomic.Int64
	firstClaim  atomic.Int64 // unix nanoseconds
	lateBatches atomic.Int64

	mu       sync.Mutex
	failures []string
	client   map[string][]float64  // route -> round-trip ms
	handler  map[string][]float64  // route -> handler ms
	trips    map[string][][2]int64 // worker -> round trips, unix microseconds
}

func newHTTPTimer() *httpTimer {
	return &httpTimer{
		base:    &http.Transport{MaxIdleConnsPerHost: 16},
		client:  map[string][]float64{},
		handler: map[string][]float64{},
		trips:   map[string][][2]int64{},
	}
}

// workerTransport is one worker's transport: the shared timer, which
// also notes, in traced rounds, when each of the worker's round trips was
// in flight.
type workerTransport struct {
	t    *httpTimer
	node string
}

func (w workerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := w.t.RoundTrip(req)
	if w.t.detail.Load() {
		w.t.mu.Lock()
		w.t.trips[w.node] = append(w.t.trips[w.node], [2]int64{start.UnixMicro(), time.Now().UnixMicro()})
		w.t.mu.Unlock()
	}
	return resp, err
}

// route names the API call a request makes.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasSuffix(p, "/claim"):
		return "claim"
	case strings.HasSuffix(p, "/heartbeat"):
		return "heartbeat"
	case strings.HasPrefix(p, "/v1/shards/") && strings.HasSuffix(p, "/journal"):
		return "journal"
	case r.Method == http.MethodPost && p == "/v1/campaigns":
		return "submit"
	case strings.HasSuffix(p, "/log"), strings.HasSuffix(p, "/trace"):
		return "fetch"
	case strings.HasPrefix(p, "/v1/campaigns/"):
		return "status"
	}
	return "other"
}

func (t *httpTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	d := time.Since(start)
	rt := route(req)
	if err == nil && rt == "claim" && resp.StatusCode == http.StatusOK {
		t.firstClaim.CompareAndSwap(0, time.Now().UnixNano())
	}
	// Requests cut short by a stack shutting down are not failures.
	if !t.closing.Load() && req.Context().Err() == nil {
		t.attempted.Add(1)
		switch {
		case err != nil:
			t.fail(fmt.Sprintf("%s %s: %v", req.Method, req.URL.Path, err))
		case resp.StatusCode >= 300:
			if body, expected := t.refusal(rt, resp); !expected {
				t.fail(fmt.Sprintf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, body))
			}
		}
	}
	if t.detail.Load() {
		t.mu.Lock()
		t.client[rt] = append(t.client[rt], ms(d))
		t.mu.Unlock()
	}
	return resp, err
}

// refusal reads a refused request's answer, leaving the body readable
// for the caller, and recognizes the refusals the protocol documents for
// requests that race a completion, both answered 409 "campaign_closed": a
// heartbeat in flight when its shard completed or its campaign finished
// (a worker cannot recall a heartbeat it has sent), and a journal batch
// that reaches a campaign already finalized. The second drops the spans
// the batch carried, so it is counted as shard.late_batches. A campaign
// that closes for any reason but success fails its round through its
// status, so accepting these refusals hides no failure.
func (t *httpTimer) refusal(rt string, resp *http.Response) (string, bool) {
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(b))
	body := string(bytes.TrimSpace(b))
	if err != nil || resp.StatusCode != http.StatusConflict {
		return body, false
	}
	switch {
	case rt == "heartbeat" && strings.Contains(body, `"campaign_closed"`):
		return body, true
	case rt == "journal" && strings.Contains(body, `"campaign_closed"`):
		t.lateBatches.Add(1)
		return body, true
	}
	return body, false
}

func (t *httpTimer) fail(msg string) {
	t.mu.Lock()
	t.failures = append(t.failures, msg)
	t.mu.Unlock()
}

// wrap times the server side of each request in traced rounds.
func (t *httpTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.detail.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		t.mu.Lock()
		t.handler[route(r)] = append(t.handler[route(r)], ms(d))
		t.mu.Unlock()
	})
}

// stack is one served deployment in this process: a durable store, a
// service.Server in coordinator mode behind a loopback HTTP listener, and
// one shard.Worker per CPU, each running campaigns with one engine worker.
type stack struct {
	co        *shard.Coordinator
	srv       *service.Server
	hs        *http.Server
	base      string
	client    *http.Client
	timer     *httpTimer
	workers   []string
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	serveDone chan struct{}
}

func startStack(ctx context.Context, dir string) (*stack, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	co := shard.NewCoordinator(st, shard.Options{LeaseTTL: leaseTTL, ShardsPerCampaign: shardsPerCampaign})
	srv := service.New(st, service.Options{Workers: 1, Coordinator: co})
	if _, err := srv.Start(ctx); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	timer := newHTTPTimer()
	s := &stack{co: co, srv: srv, base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: timer}, timer: timer, serveDone: make(chan struct{})}
	s.hs = &http.Server{Handler: timer.wrap(srv.Handler())}
	go func() {
		defer close(s.serveDone)
		s.hs.Serve(ln)
	}()
	wctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	for i := 1; i <= runtime.NumCPU(); i++ {
		name := fmt.Sprintf("w%d", i)
		w := &shard.Worker{Base: s.base, Name: name, Poll: workerPoll,
			Client: &http.Client{Transport: workerTransport{timer, name}}}
		s.workers = append(s.workers, w.Name)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.Run(wctx)
		}()
	}
	return s, nil
}

// close stops the workers, the listener and the server, waiting for each,
// and moves the HTTP tally into res.
func (s *stack) close(res *result) {
	s.timer.closing.Store(true)
	s.cancel()
	s.wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.serveDone
	s.srv.Close()
	s.timer.base.CloseIdleConnections()
	res.attempted += int(s.timer.attempted.Load())
	res.failed += len(s.timer.failures)
	res.problems = append(res.problems, s.timer.failures...)
}

// do sends one request and decodes a JSON answer into out, if non-nil.
func (s *stack) do(ctx context.Context, method, path string, body any, out any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		return b, json.Unmarshal(b, out)
	}
	return b, nil
}

// servedRound is one campaign through the served stack.
type servedRound struct {
	sample
	digest          string
	journal, traces *records
	work            journalStats
	spans           []obs.SpanRecord
	co              shard.Stats
	lateBatches     int64
}

// round submits one campaign, polls its status until it is done, then
// reads back its journal and propagation traces (and, traced, its spans).
func (s *stack) round(ctx context.Context, res *result, id string, variant int, spec store.Spec, traced bool) (*servedRound, error) {
	coBefore := s.co.Stats()
	lateBefore := s.timer.lateBatches.Load()
	s.timer.detail.Store(traced)
	smp, err := meter(func() error {
		body := struct {
			ID string `json:"id"`
			store.Spec
		}{id, spec}
		if _, err := s.do(ctx, http.MethodPost, "/v1/campaigns", body, nil); err != nil {
			return err
		}
		for {
			var st struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			if _, err := s.do(ctx, http.MethodGet, "/v1/campaigns/"+url.PathEscape(id), nil, &st); err != nil {
				return err
			}
			switch st.State {
			case service.StateDone:
				return nil
			case service.StateFailed, service.StateCancelled:
				return fmt.Errorf("campaign %s ended %s: %s", id, st.State, st.Error)
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
	s.timer.detail.Store(false)
	if !res.op(err) {
		return nil, err
	}
	smp.variant = variant
	out := &servedRound{sample: smp, co: subStats(s.co.Stats(), coBefore),
		lateBatches: s.timer.lateBatches.Load() - lateBefore}
	jb, err := s.do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/log", nil, nil)
	if !res.op(err) {
		return nil, err
	}
	if out.journal, err = parseRecords(bytes.NewReader(jb)); !res.op(err) {
		return nil, err
	}
	if out.work, err = readJournalStats(jb); !res.op(err) {
		return nil, err
	}
	res.check(out.journal.dups == 0 && out.work.exps == spec.Runs,
		"%s: merged journal holds %d experiments (%d duplicated), want each of %d once", id, out.work.exps, out.journal.dups, spec.Runs)
	out.traces = &records{byKey: map[string]string{}}
	if spec.Trace {
		tb, err := s.do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/trace", nil, nil)
		if !res.op(err) {
			return nil, err
		}
		if out.traces, err = parseRecords(bytes.NewReader(tb)); !res.op(err) {
			return nil, err
		}
		res.check(out.traces.count("trace") == spec.Runs, "%s: %d propagation traces, want %d", id, out.traces.count("trace"), spec.Runs)
	}
	out.exps, out.cycles = out.work.exps, out.work.cycles
	out.digest = combine([]string{out.journal.digest(), out.traces.digest()})
	if traced {
		sb, err := s.do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/trace?format=jsonl", nil, nil)
		if !res.op(err) {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(sb))
		sc.Buffer(make([]byte, 1<<20), 16<<20)
		for sc.Scan() {
			var r obs.SpanRecord
			if err := json.Unmarshal(sc.Bytes(), &r); !res.op(err) {
				return nil, err
			}
			out.spans = append(out.spans, r)
		}
	}
	return out, nil
}

func subStats(a, b shard.Stats) shard.Stats {
	return shard.Stats{Batches: a.Batches - b.Batches, RecordsDuped: a.RecordsDuped - b.RecordsDuped,
		ShardsReissued: a.ShardsReissued - b.ShardsReissued}
}

// runServedWorkload is one run of the served workload.
func runServedWorkload(ctx context.Context, wl *workload, opts options) (res *result, err error) {
	res = newResult()
	specOf := func(variant int) store.Spec { return wl.specs(opts.seed, variant, 1)[0] }

	// Set-up is repeated on fresh stacks: store open, server, coordinator
	// and workers up, a small set-up campaign submitted, and its first
	// shard claimed (which includes the coordinator's golden profile run).
	// The last stack stays up; its untimed warm-up round runs the first
	// variant in full before the measurement window.
	setupSpec := specOf(0)
	setupSpec.Runs = servedSetupRuns
	var setup []float64
	var stk *stack
	for r := 0; r < servedSetupReps; r++ {
		if stk != nil {
			stk.close(res)
		}
		t0 := time.Now()
		if stk, err = startStack(ctx, filepath.Join(opts.dir, fmt.Sprintf("stack%d", r))); err != nil {
			return nil, err
		}
		if _, err = stk.round(ctx, res, "setup", 0, setupSpec, false); err != nil {
			stk.close(res)
			return nil, err
		}
		setup = append(setup, time.Unix(0, stk.timer.firstClaim.Load()).Sub(t0).Seconds())
	}
	defer stk.close(res)
	res.set("setup_s", setup...)
	book := digestBook{}
	warm, err := stk.round(ctx, res, "warm", 0, specOf(0), false)
	if err != nil {
		return nil, err
	}
	book.check(res, 0, warm.digest, "warm-up round")

	var plain, traced []*servedRound
	var counters []probeCounters
	start, failed := time.Now(), 0
	for i := 0; measuring(start, opts, len(plain), len(traced), failed); i++ {
		variant, tr := roundPlan(i, opts.trace)
		before := readProbeCounters()
		out, err := stk.round(ctx, res, fmt.Sprintf("r%d", i), variant, specOf(variant), tr)
		if err != nil {
			failed++
			continue
		}
		book.check(res, variant, out.digest, fmt.Sprintf("round %d", i))
		if tr {
			traced = append(traced, out)
			counters = append(counters, readProbeCounters().sub(before))
		} else {
			plain = append(plain, out)
		}
	}
	checkPinned(res, wl.name, opts.seed, book.runDigest())
	prof, err := compareWithInProcess(ctx, res, specOf(0), warm, opts)
	if err != nil {
		return nil, err
	}
	if !opts.trace {
		endToEndMetrics(res, servedSamples(plain))
		return res, nil
	}

	var attr [][3]float64
	stk.timer.mu.Lock()
	for _, r := range traced {
		attr = append(attr, servedAttribution(r.spans, stk.timer.trips, r.start, r.wall, stk.workers))
	}
	stk.timer.mu.Unlock()
	tracedLayers(res, servedSamples(plain), servedSamples(traced), counters, attr, len(traced))
	httpLayers(res, stk.timer, traced)
	var profile []float64
	cfg, err := specOf(0).Config()
	if err != nil {
		return nil, err
	}
	for rep := 0; rep < 3; rep++ {
		t := time.Now()
		if _, err := core.ProfileApp(ctx, cfg.App, cfg.GPU); err != nil {
			return nil, err
		}
		profile = append(profile, time.Since(t).Seconds())
	}
	res.set("core.profile_s", profile...)
	if err := probeLayers(ctx, res, []store.Spec{specOf(0)}, []*core.Profile{prof}, [][]uint64{warm.work.inj}, opts); err != nil {
		return nil, err
	}
	return res, nil
}

func servedSamples(rounds []*servedRound) []sample {
	out := make([]sample, len(rounds))
	for i, r := range rounds {
		out[i] = r.sample
	}
	return out
}

// compareWithInProcess runs the served spec through store.Run in this
// process and checks that the served journal and traces equal it record
// for record. It returns the golden profile it used.
func compareWithInProcess(ctx context.Context, res *result, spec store.Spec, served *servedRound, opts options) (*core.Profile, error) {
	st, err := store.Open(filepath.Join(opts.dir, "reference"))
	if err != nil {
		return nil, err
	}
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	prof, err := core.ProfileApp(ctx, cfg.App, cfg.GPU)
	if err != nil {
		return nil, err
	}
	local := spec
	local.Workers = runtime.NumCPU()
	if _, err := st.Run(ctx, "reference", local, prof, nil); !res.op(err) {
		return nil, err
	}
	jb, err := readAll(st.OpenLog("reference"))
	if !res.op(err) {
		return nil, err
	}
	journal, err := parseRecords(bytes.NewReader(jb))
	if !res.op(err) {
		return nil, err
	}
	res.check(diff(journal, served.journal) == 0, "served journal differs from the in-process journal in %d records", diff(journal, served.journal))
	if spec.Trace {
		tb, err := readAll(st.OpenTraces("reference"))
		if !res.op(err) {
			return nil, err
		}
		traces, err := parseRecords(bytes.NewReader(tb))
		if !res.op(err) {
			return nil, err
		}
		res.check(diff(traces, served.traces) == 0, "served traces differ from the in-process traces in %d records", diff(traces, served.traces))
	}
	return prof, nil
}

// servedCampaignSteps are the coordinator's and service's campaign-wide
// steps: while one runs, no worker has a shard to simulate, so it blocks
// every worker's track. The coordinator's request handlers (claim,
// heartbeat, ingest) are not among them; each runs inside one worker's
// round trip, which that worker's track already holds.
var servedCampaignSteps = map[string]bool{
	"service.queue": true, "coordinator.profile": true, "coordinator.prepass": true,
	"coordinator.plan": true, "coordinator.recover": true, "coordinator.finalize": true, "wal.fsync": true,
}

// servedLeaves are the leaf spans of a worker's own track.
var servedLeaves = map[string]bool{
	"engine.snapshot": true, "engine.fork": true, "engine.execute": true, "engine.classify": true,
	"worker.profile": true, "worker.resend": true,
}

// servedAttribution splits one traced served round's simulating-slot time
// (wall x workers) among the layers, like attribution does in process. A
// worker's track is attributed while one of its leaf spans runs, while
// one of its HTTP round trips (trips, by worker) is in flight, or while a
// campaign-wide step blocks it. Its shard span's time beyond those, and
// its cluster spans' time beyond their experiments, is not attributed.
func servedAttribution(spans []obs.SpanRecord, trips map[string][][2]int64, start time.Time, wall float64, workers []string) [3]float64 {
	lo := start.UnixMicro()
	hi := lo + int64(wall*1e6)
	perNode := map[string][][2]int64{}
	var blocking [][2]int64
	var prefixUS, clusterUS, childUS int64
	for _, r := range finalSpans(spans) {
		iv := [2]int64{r.StartUS, r.StartUS + r.DurUS}
		switch {
		case servedCampaignSteps[r.Name]:
			blocking = append(blocking, iv)
		case servedLeaves[r.Name]:
			perNode[r.Node] = append(perNode[r.Node], iv)
		}
		switch r.Name {
		case "engine.snapshot":
			prefixUS += r.DurUS
		case "engine.cluster":
			clusterUS += r.DurUS
		case "engine.fork", "engine.execute", "engine.classify":
			childUS += r.DurUS
		}
	}
	slots := wall * 1e6 * float64(len(workers))
	var covered int64
	for _, w := range workers {
		covered += coverage(append(append(perNode[w], trips[w]...), blocking...), lo, hi)
	}
	return [3]float64{float64(covered) / slots, float64(prefixUS) / slots, float64(clusterUS-childUS) / slots}
}

// httpLayers reports the shard, service and HTTP metrics of traced served
// rounds.
func httpLayers(res *result, t *httpTimer, traced []*servedRound) {
	t.mu.Lock()
	defer t.mu.Unlock()
	set := func(name string, xs []float64, why string) {
		if len(xs) == 0 {
			res.skip(name, why)
			return
		}
		res.set(name, xs...)
	}
	set("shard.claim_ms", t.client["claim"], "no shard was claimed")
	set("shard.journal_post_ms", t.client["journal"], "no journal batch was posted")
	set("shard.heartbeat_ms", t.client["heartbeat"], "every shard finished inside one heartbeat interval")
	set("shard.ingest_ms_per_batch", t.handler["journal"], "no journal batch was ingested")
	set("service.submit_ms", t.client["submit"], "no campaign was submitted")
	set("service.status_ms", t.client["status"], "no status was read")
	var batches, duped, reissued, late, exps float64
	var queue []float64
	for _, r := range traced {
		batches += float64(r.co.Batches)
		duped += float64(r.co.RecordsDuped)
		reissued += float64(r.co.ShardsReissued)
		late += float64(r.lateBatches)
		exps += float64(r.exps)
		for _, sp := range finalSpans(r.spans) {
			if sp.Name == "service.queue" {
				queue = append(queue, float64(sp.DurUS)/1e6)
			}
		}
	}
	n := float64(len(traced))
	res.set("shard.batches", batches/n)
	res.set("shard.records_duped", duped/n)
	res.set("shard.reissued", reissued/n)
	res.set("shard.late_batches", late/n)
	set("service.queue_s", queue, "no service.queue span was recorded")
	var nClient, nHandler int
	var sumClient, sumHandler float64
	for rt, xs := range t.client {
		if rt == "fetch" {
			continue // the benchmark's own reads after each round
		}
		nClient += len(xs)
		for _, x := range xs {
			sumClient += x
		}
	}
	for rt, xs := range t.handler {
		if rt == "fetch" {
			continue
		}
		nHandler += len(xs)
		for _, x := range xs {
			sumHandler += x
		}
	}
	res.set("service.requests_per_exp", float64(nHandler)/exps)
	if nClient > 0 && nHandler > 0 {
		res.set("http.overhead_ms_per_req", sumClient/float64(nClient)-sumHandler/float64(nHandler))
	}
}

// servedLayerProbe measures the shard, service and HTTP layers for an
// in-process workload: a fresh stack runs spec once to warm up and then
// twice traced.
func servedLayerProbe(ctx context.Context, res *result, spec store.Spec, opts options) error {
	stk, err := startStack(ctx, filepath.Join(opts.dir, "probe-stack"))
	if err != nil {
		return err
	}
	defer stk.close(res)
	if _, err := stk.round(ctx, res, "warm", 0, spec, false); err != nil {
		return err
	}
	var traced []*servedRound
	for i := 0; i < 2; i++ {
		out, err := stk.round(ctx, res, fmt.Sprintf("p%d", i), 0, spec, true)
		if err != nil {
			return err
		}
		traced = append(traced, out)
	}
	httpLayers(res, stk.timer, traced)
	return nil
}
