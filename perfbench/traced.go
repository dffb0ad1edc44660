package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"looppart"
	"looppart/internal/plancache"
	"looppart/internal/server"
	"looppart/internal/telemetry"
)

// Layers whose self time the traced run reports, in report order. The
// names are the span names the pipeline records.
var tracedLayers = []string{
	"looppart.parse", "loopir.parse", "footprint.analyze", "plancache.key",
	"plancache.get", "plancache.singleflight", "plancache.put",
	"partition.search.rect", "partition.search.skewed", "partition.search.comm-free",
	"partition.search.lowerbound", "partition.search.oblivious",
	"tile.assign", "service.encode", "commsets.analyze", "partition.lowerbound",
	"verify.selfcheck", "autotune.tournament",
}

// probeMin is the fewest timed calls a layer needs before its time is
// taken from the workload itself; below it the layer probe supplies it.
const probeMin = 8

// layerSamples maps a span name to the self times of its calls.
type layerSamples map[string][]time.Duration

func (l layerSamples) add(o layerSamples) {
	for k, v := range o {
		l[k] = append(l[k], v...)
	}
}

// selfTimes returns each span's duration minus its children's.
func selfTimes(spans []span) layerSamples {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := layerSamples{}
	for i, s := range spans {
		out[s.name] = append(out[s.name], self[i])
	}
	return out
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tracedResult is what the traced run reports.
type tracedResult struct {
	metrics           map[string]metric
	attempted, failed int
	table             []string
}

// runTraced replays the workload four ways over the same requests —
// traced pipeline, Service calls, server.Handler, and the daemon over
// loopback — and derives the per-layer metrics.
func runTraced(env *runEnv, w *workload) (*tracedResult, error) {
	out := &tracedResult{metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { out.metrics[name] = metric{v, unit} }
	chk := newChecker(env.ref)
	// The three in-process replays take turns over the same chunks of
	// the stream for three quarters of the run, so that a shift in host
	// load hits them alike; the daemon gets the last quarter.
	quarter := time.Duration(env.seconds) * time.Second / 4

	// A: the traced pipeline.
	p := newPipe(w.opts)
	for _, r := range w.warm {
		resp, err := p.serve(nil, r, env.u.items[r.idx].req)
		chk.check(r, resp, err)
	}
	p.resetCounters()
	evict0 := p.cache.Stats().Evictions
	skew0 := telemetry.Active().Counter("partition.skew.candidates").Value()
	epoch := time.Now()
	var mu sync.Mutex
	samples := layerSamples{}
	var kept []span // spans written to the trace file
	var rootSum time.Duration
	// Per-request replay time and summed stage self time, by stream index.
	rootDur := make(map[int]time.Duration)
	stageDur := make(map[int]time.Duration)
	traced := func(i int) (string, bool) {
		r := w.stream(i)
		t := &reqTrace{epoch: epoch, id: int32(i)}
		resp, err := p.serve(t, r, env.u.items[r.idx].req)
		ok := chk.check(r, resp, err)
		self := selfTimes(t.spans)
		var stages time.Duration
		for name, v := range self {
			if name != "request" {
				for _, d := range v {
					stages += d
				}
			}
		}
		mu.Lock()
		samples.add(self)
		rootDur[i] = t.spans[0].end - t.spans[0].start
		stageDur[i] = stages
		rootSum += rootDur[i]
		if len(kept) < traceFileSpans {
			kept = append(kept, t.spans...)
		}
		mu.Unlock()
		return resp.cache, ok
	}

	// B: Service calls on an identically warmed Service.
	svc := looppart.NewService(w.opts)
	for _, r := range w.warm {
		resp, err := serviceCall(svc, r, env.u.items[r.idx].req)
		chk.check(r, resp, err)
	}
	var durB []time.Duration
	service := func(i int) (string, bool) {
		r := w.stream(i)
		t0 := time.Now()
		resp, err := serviceCall(svc, r, env.u.items[r.idx].req)
		durB[i] = time.Since(t0)
		return resp.cache, chk.check(r, resp, err)
	}

	// C: the HTTP handler in-process, no socket.
	hsvc := looppart.NewService(w.opts)
	hs := handlerSender(server.New(server.Config{Service: hsvc, Registry: telemetry.Active()}).Handler())
	for _, r := range w.warm {
		serve(hs, chk, env.bodies, r)
	}
	var durC []time.Duration
	handler := func(i int) (string, bool) {
		r := w.stream(i)
		t0 := time.Now()
		resp, err := hs(r, env.bodies[r.idx])
		durC[i] = time.Since(t0)
		return resp.cache, chk.check(r, resp, err)
	}

	var rt runtimeSample // the traced pipeline's share only
	m := 0
	for time.Since(epoch) < 3*quarter && (w.capacity == 0 || m < w.capacity) {
		n := traceChunk
		if w.capacity > 0 {
			n = min(n, w.capacity-m)
		}
		durB = append(durB, make([]time.Duration, n)...)
		durC = append(durC, make([]time.Duration, n)...)
		base := m
		rt0 := readRuntime()
		closedLoop(n, time.Time{}, func(i int) (string, bool) { return traced(base + i) })
		rt.add(readRuntime(), rt0)
		closedLoop(n, time.Time{}, func(i int) (string, bool) { return service(base + i) })
		closedLoop(n, time.Time{}, func(i int) (string, bool) { return handler(base + i) })
		m += n
	}
	if err := writeTrace(env, w, kept); err != nil {
		return nil, err
	}

	// D: the daemon over loopback, for the network share and the
	// daemon's own counters.
	d, _, err := startDaemon(env.daemonBin, env.workDir, w.flags)
	if err != nil {
		return nil, err
	}
	hsend := httpSender(d.base)
	for _, r := range w.warm {
		serve(hsend, chk, env.bodies, r)
	}
	c0, err := d.counters()
	if err != nil {
		d.stop()
		return nil, err
	}
	durD := make([]time.Duration, m)
	stD := closedLoop(m, time.Now().Add(quarter), func(i int) (string, bool) {
		r := w.stream(i)
		t0 := time.Now()
		st, ok := serve(hsend, chk, env.bodies, r)
		durD[i] = time.Since(t0)
		return st, ok
	})
	c1, err := d.counters()
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}

	// Allocations per call, one goroutine.
	allocs := measureAllocs(w, env, m)

	// Layer probe for layers the workload itself does not call.
	probe := runProbe(env)

	// Per-layer self times.
	out.table = append(out.table, fmt.Sprintf("%-30s %8s %12s %12s %10s  %s", "layer", "calls", "self p50 µs", "self p99 µs", "share", "source"))
	// Coverage and overhead compare medians over the same requests: sums
	// would be set by a handful of GC-stalled outliers.
	stageMed := quantile(values(stageDur), 0.5)
	rootMed := quantile(values(rootDur), 0.5)
	svcMed := quantile(append([]time.Duration(nil), durB...), 0.5)
	for _, name := range tracedLayers {
		v, source := samples[name], "workload"
		calls := len(v)
		var sum time.Duration
		for _, d := range v {
			sum += d
		}
		if calls < probeMin {
			v, source = probe[name], "probe"
		}
		p50, p99 := quantile(v, 0.5), quantile(v, 0.99)
		mname := layerMetric(name)
		put(mname.us, "us", us(p50))
		put(mname.p99, "us", us(p99))
		put(mname.calls, "count", float64(calls))
		out.table = append(out.table, fmt.Sprintf("%-30s %8d %12.1f %12.1f %9.1f%%  %s", name, calls, us(p50), us(p99),
			100*float64(sum)/float64(rootSum), source))
	}
	partitionCalls := 0
	for _, name := range tracedLayers {
		if strings.HasPrefix(name, "partition.search.") {
			partitionCalls += len(samples[name])
		}
	}
	put("partition.calls", "count", float64(partitionCalls))
	skewCalls := len(samples["partition.search.skewed"])
	put("partition.skew_candidates", "count", ratio(float64(telemetry.Active().Counter("partition.skew.candidates").Value()-skew0), float64(skewCalls)))
	put("tile.assign_points", "count", ratio(float64(p.assignPoints.Load()), float64(p.assignCalls.Load())))
	put("commsets.words", "words", ratio(float64(p.commWords.Load()), float64(p.commCalls.Load())))

	// Cache behaviour of the traced run, per timed request.
	fm := float64(m)
	put("plancache.hit_ratio", "ratio", float64(p.hits.Load())/fm)
	put("plancache.hot_hit_ratio", "ratio", float64(p.hotHits.Load())/fm)
	put("plancache.evictions", "count", float64(p.cache.Stats().Evictions-evict0))
	put("plancache.research_ratio", "ratio", float64(p.research.Load())/fm)
	put("plancache.dedup_ratio", "ratio", float64(p.dedups.Load())/fm)

	// Service, handler and network shares.
	svcP50, hP50, cliP50 := quantile(durB, 0.5), quantile(durC, 0.5), quantile(durD[:stD.attempted], 0.5)
	put("service.plan_us", "us", us(svcP50))
	put("service.plan_p99_us", "us", us(quantile(durB, 0.99)))
	put("server.handler_us", "us", us(hP50))
	put("server.handler_p99_us", "us", us(quantile(durC, 0.99)))
	put("server.middleware_us", "us", us(hP50-svcP50))
	put("net.loopback_us", "us", us(cliP50-hP50))
	for k, v := range allocs {
		put(k, "count", v)
	}

	// Runtime cost of the traced run.
	put("runtime.alloc_bytes_per_req", "B", rt.allocBytes/fm)
	put("runtime.gc_cpu_fraction", "ratio", ratio(rt.gcCPU, rt.totalCPU))

	// Trace quality: stage self time against directly measured
	// Service time for the same requests, and the replay's own cost.
	put("trace.coverage_ratio", "ratio", ratio(us(stageMed), us(svcMed)))
	put("trace.overhead_ratio", "ratio", ratio(us(rootMed), us(svcMed))-1)

	// The daemon's view of the same requests (outside-in).
	dm := c1.Requests - c0.Requests
	put("daemon.search_ratio", "ratio", ratio(c1.Searches-c0.Searches, dm))
	put("daemon.hit_ratio", "ratio", ratio(c1.CacheHits-c0.CacheHits, dm))
	put("daemon.hot_hit_ratio", "ratio", ratio(c1.HotHits-c0.HotHits, dm))
	put("daemon.eviction_ratio", "ratio", ratio(c1.Evictions-c0.Evictions, dm))
	put("daemon.dedup_ratio", "ratio", ratio(float64(stD.status["dedup"]), float64(stD.attempted)))
	put("daemon.shed_ratio", "ratio", ratio(c1.Shed-c0.Shed, float64(stD.attempted)))
	put("plan_comm_words", "words", float64(commWords(w, chk)))

	out.table = append(out.table,
		fmt.Sprintf("requests: %d each through the traced pipeline, Service and Handler, %d through the daemon", m, stD.attempted),
		fmt.Sprintf("plancache ratios are over the traced run's %d timed requests; daemon ratios over the daemon's %.0f requests", m, dm),
		fmt.Sprintf("coverage: median stage self time per request %.1f µs / median Service time %.1f µs = %.3f (same %d requests)", us(stageMed), us(svcMed), ratio(us(stageMed), us(svcMed)), m),
		fmt.Sprintf("tracing overhead: median traced replay %.1f µs vs untraced Service %.1f µs = %+.1f%%", us(rootMed), us(svcMed), 100*(ratio(us(rootMed), us(svcMed))-1)))
	out.attempted = chk.attempts()
	out.failed = chk.failed()
	if chk.sample != "" {
		out.table = append(out.table, "first failure: "+chk.sample)
	}
	return out, nil
}

// layerNames are a layer's three metric names.
type layerNames struct{ us, p99, calls string }

// layerMetric names a layer's metrics: "partition.search.rect" becomes
// partition.search_us.rect and friends, other layers <layer>_us.
func layerMetric(name string) layerNames {
	if f, ok := strings.CutPrefix(name, "partition.search."); ok {
		return layerNames{"partition.search_us." + f, "partition.search_p99_us." + f, "partition.search_calls." + f}
	}
	return layerNames{name + "_us", name + "_p99_us", name + "_calls"}
}

// serviceCall makes the Service calls the HTTP handler would make for r,
// and frames the answer like the handler so that it can be checked.
func serviceCall(svc *looppart.Service, r request, req looppart.PlanRequest) (response, error) {
	if r.route == routeTune {
		res, err := svc.Tournament(req)
		if err != nil {
			return response{}, err
		}
		b, err := json.Marshal(res)
		return response{code: http.StatusOK, body: b}, err
	}
	resp, err := svc.Plan(context.Background(), req)
	if err != nil {
		return response{}, err
	}
	if r.route != routeCertify {
		return response{code: http.StatusOK, cache: resp.Status, body: resp.Raw}, nil
	}
	b, err := verifyEnvelope(resp.Raw, svc.Verify(req, resp.Result))
	return response{code: http.StatusOK, cache: resp.Status, body: b}, err
}

// measureAllocs counts heap allocations per call on one goroutine over
// the first requests of the stream, on an identically warmed Service.
func measureAllocs(w *workload, env *runEnv, m int) map[string]float64 {
	n := min(m, 256)
	svc := looppart.NewService(w.opts)
	for _, r := range w.warm {
		serviceCall(svc, r, env.u.items[r.idx].req)
	}
	count := func(f func(i int)) float64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for i := 0; i < n; i++ {
			f(i)
		}
		runtime.ReadMemStats(&b)
		return float64(b.Mallocs-a.Mallocs) / float64(n)
	}
	progs := make([]*looppart.Program, n)
	out := map[string]float64{}
	out["service.plan_allocs"] = count(func(i int) {
		r := w.stream(i)
		serviceCall(svc, r, env.u.items[r.idx].req)
	})
	out["looppart.parse_allocs"] = count(func(i int) {
		req := env.u.items[w.stream(i).idx].req
		progs[i], _ = looppart.Parse(req.Source, req.Params)
	})
	out["plancache.key_allocs"] = count(func(i int) {
		if progs[i] != nil {
			req := env.u.items[w.stream(i).idx].req
			s, _ := looppart.ParseStrategy(req.Strategy)
			plancache.Key(progs[i].Nest, req.Procs, s.String())
		}
	})
	return out
}

// runProbe times every layer on a small seeded request set through fresh
// pipelines: eight plan items per search family through a default one,
// eight cert and four tune items through a certifying one. Layers a
// workload never calls (partition on hot_hits, commsets off certify)
// report the probe's times; their call counts stay the workload's own.
func runProbe(env *runEnv) layerSamples {
	rnd := rand.New(rand.NewSource(env.seed ^ 0x9e0be))
	var plan, cert []request
	for _, g := range byStrategy(env.u, shuffled(env.ref.valid(env.u, secPlan), rnd)) {
		for _, idx := range g[:min(8, len(g))] {
			plan = append(plan, request{idx, routePlan})
		}
	}
	for _, idx := range shuffled(env.ref.valid(env.u, secCert), rnd)[:8] {
		cert = append(cert, request{idx, routeCertify})
	}
	for _, idx := range shuffled(env.ref.valid(env.u, secTune), rnd)[:4] {
		cert = append(cert, request{idx, routeTune})
	}
	out := layerSamples{}
	epoch := time.Now()
	for _, set := range []struct {
		reqs     []request
		commSets bool
	}{{plan, false}, {cert, true}} {
		p := newPipe(looppart.ServiceOptions{Fingerprint: daemonFingerprint(), CommSets: set.commSets})
		for i, r := range set.reqs {
			t := &reqTrace{epoch: epoch, id: int32(i)}
			if _, err := p.serve(t, r, env.u.items[r.idx].req); err == nil {
				out.add(selfTimes(t.spans))
			}
		}
	}
	return out
}

// commWords sums comm.words over the certify stream's first commPrefix
// cert plans: a fixed, seed-determined set every run serves.
func commWords(w *workload, chk *checker) int64 {
	if w.commPrefix == 0 {
		return 0
	}
	chk.mu.Lock()
	defer chk.mu.Unlock()
	var sum int64
	seen := 0
	for i := 0; seen < w.commPrefix; i++ {
		r := w.stream(i)
		if r.route != routeCertify {
			continue
		}
		seen++
		sum += chk.words[r.idx]
	}
	return sum
}

// traceChunk is how many requests each in-process replay serves before
// handing over to the next.
const traceChunk = 256

// traceFileSpans caps the spans written to the trace file.
const traceFileSpans = 1 << 15

// writeTrace writes the traced run's spans as JSON lines.
func writeTrace(env *runEnv, w *workload, spans []span) error {
	path := fmt.Sprintf("%s/trace-%s-seed%d.jsonl", env.workDir, w.name, env.seed)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		enc.Encode(struct {
			Name    string  `json:"name"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
			Parent  int32   `json:"parent"`
			Req     int32   `json:"req"`
		}{s.name, us(s.start), us(s.end), s.parent, s.req})
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeSample is the process-wide allocation and CPU counters.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

// add accumulates the difference b − a.
func (s *runtimeSample) add(b, a runtimeSample) {
	s.allocBytes += b.allocBytes - a.allocBytes
	s.gcCPU += b.gcCPU - a.gcCPU
	s.totalCPU += b.totalCPU - a.totalCPU
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2)}
}

func values(m map[int]time.Duration) []time.Duration {
	out := make([]time.Duration, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
