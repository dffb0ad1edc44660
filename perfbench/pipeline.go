package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"looppart"
	"looppart/internal/autotune"
	"looppart/internal/commsets"
	"looppart/internal/footprint"
	"looppart/internal/loopir"
	"looppart/internal/partition"
	"looppart/internal/plancache"
	"looppart/internal/telemetry"
	"looppart/internal/tile"
	"looppart/internal/verify"
)

// span is one timed layer call. Spans of one request share req; parent
// indexes the request's span list (-1 for the request's root).
type span struct {
	name       string
	start, end time.Duration // since the trace epoch
	parent     int32
	req        int32
}

// reqTrace collects one request's spans. A nil *reqTrace records
// nothing, so the pipeline runs untraced at the cost of a nil check.
// Spans nest strictly: the singleflight owner's search runs on its own
// goroutine, but the request's goroutine is blocked in the flight until
// it ends, so the list is never written concurrently.
type reqTrace struct {
	epoch time.Time
	id    int32
	spans []span
	stack []int32
}

func (t *reqTrace) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, req: t.id})
	t.stack = append(t.stack, i)
	return i
}

func (t *reqTrace) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.epoch)
	t.stack = t.stack[:len(t.stack)-1]
}

// pipe replays the planning service's request path layer by layer,
// through each layer's exported API, so that the benchmark can put a
// span around every call. It mirrors looppart.Service.plan, Service.encode
// and Service.Tournament; the bytes it produces are checked against the
// same reference as the daemon's, so a pipe that drifted from the
// service would fail the run.
type pipe struct {
	opts     looppart.ServiceOptions
	cache    *plancache.Cache
	hot      *plancache.HotTier
	group    plancache.Group
	verifier *looppart.Service // Service.Verify is stateless w.r.t. the cache

	requests, hits, hotHits, dedups, research       atomic.Int64
	assignPoints, assignCalls, commWords, commCalls atomic.Int64

	mu     sync.Mutex
	served map[string]bool // keys searched so far, to count re-searches
}

func newPipe(opts looppart.ServiceOptions) *pipe {
	p := &pipe{
		opts:     opts,
		cache:    plancache.NewCache(opts.CacheBytes),
		hot:      plancache.NewHotTier(opts.HotKeys),
		verifier: looppart.NewService(opts),
		served:   map[string]bool{},
	}
	if p.hot != nil {
		p.cache.OnInvalidate(p.hot.Invalidate)
	}
	return p
}

// resetCounters zeroes the per-run counters after the warm-up. The
// request count stays: it paces hot-tier rebuilds, as in the Service.
func (p *pipe) resetCounters() {
	for _, c := range []*atomic.Int64{&p.hits, &p.hotHits, &p.dedups, &p.research,
		&p.assignPoints, &p.assignCalls, &p.commWords, &p.commCalls} {
		c.Store(0)
	}
}

// serve answers r like the server would, returning the response body.
func (p *pipe) serve(t *reqTrace, r request, req looppart.PlanRequest) (response, error) {
	root := t.begin("request")
	if r.route == routeTune {
		res, err := p.tournament(t, req)
		t.end(root)
		if err != nil {
			return response{}, err
		}
		body, err := json.Marshal(res)
		return response{code: http.StatusOK, body: body}, err
	}
	raw, rep, cache, err := p.plan(t, req, r.route == routeCertify)
	t.end(root)
	if err != nil || rep == nil {
		return response{code: http.StatusOK, cache: cache, body: raw}, err
	}
	body, err := verifyEnvelope(raw, rep)
	return response{code: http.StatusOK, cache: cache, body: body}, err
}

// verifyEnvelope frames a plan and its self-check report the way the
// server answers ?verify=1.
func verifyEnvelope(raw []byte, rep *verify.Report) ([]byte, error) {
	return json.Marshal(struct {
		Result json.RawMessage `json:"result"`
		Verify *verify.Report  `json:"verify"`
	}{raw, rep})
}

func (p *pipe) plan(t *reqTrace, req looppart.PlanRequest, check bool) ([]byte, *verify.Report, string, error) {
	n := p.requests.Add(1)
	if p.hot != nil && n%plancache.DefaultHotRebuildEvery == 0 {
		s := t.begin("plancache.hot_rebuild")
		p.hot.Rebuild(p.cache)
		t.end(s)
	}
	prog, strategy, err := p.prepare(t, req)
	if err != nil {
		return nil, nil, "", err
	}
	key := p.key(t, prog, req.Procs, strategy)

	var (
		raw    []byte
		dec    any
		ok     bool
		status string
		res    *looppart.PlanResult
	)
	if p.hot != nil {
		s := t.begin("plancache.hot_get")
		raw, dec, ok = p.hot.Get(key)
		t.end(s)
		if ok {
			p.hotHits.Add(1)
			p.hits.Add(1)
			status = "hot"
		}
	}
	if !ok {
		s := t.begin("plancache.get")
		raw, dec, ok = p.cache.GetDecoded(key)
		t.end(s)
		if ok {
			p.hits.Add(1)
			status = "hit"
		}
	}
	if ok {
		cp := *dec.(*looppart.PlanResult)
		res = &cp
	} else {
		s := t.begin("plancache.singleflight")
		var searched *looppart.PlanResult
		var shared bool
		raw, shared, _, err = p.group.Do(context.Background(), key, func() ([]byte, error) {
			p.mu.Lock()
			if p.served[key] {
				p.research.Add(1)
			}
			p.served[key] = true
			p.mu.Unlock()
			plan, assign, err := p.search(t, prog, strategy, req.Procs)
			if err != nil {
				return nil, err
			}
			raw, dec, err := p.encode(t, plan, assign, nil, key, req.Strategy, strategy, req.Procs)
			if err != nil {
				return nil, err
			}
			p.put(t, key, raw, dec)
			searched = dec
			return raw, nil
		})
		t.end(s)
		if err != nil {
			return nil, nil, "", err
		}
		status = "miss"
		if shared {
			status = "dedup"
			p.dedups.Add(1)
			p.hits.Add(1)
			res = &looppart.PlanResult{}
			if err := json.Unmarshal(raw, res); err != nil {
				return nil, nil, "", err
			}
		} else {
			cp := *searched
			res = &cp
		}
	}
	var rep *verify.Report
	if check {
		s := t.begin("verify.selfcheck")
		rep = p.verifier.Verify(req, res)
		t.end(s)
	}
	return raw, rep, status, nil
}

// prepare mirrors Service.prepare and looppart.Parse: loopir parse,
// footprint analysis, then the per-class decision-trace events that are
// looppart.parse's own work.
func (p *pipe) prepare(t *reqTrace, req looppart.PlanRequest) (*looppart.Program, looppart.Strategy, error) {
	name := req.Strategy
	if name == "" {
		name = looppart.Auto.String()
	}
	strategy, ok := looppart.ParseStrategy(name)
	if !ok {
		return nil, 0, fmt.Errorf("unknown strategy %q", req.Strategy)
	}
	reg := telemetry.Active()
	reg.Counter("service.plan.strategy." + strategy.String()).Add(1)
	s := t.begin("looppart.parse")
	defer t.end(s)
	c := t.begin("loopir.parse")
	nest, err := loopir.Parse(req.Source, req.Params)
	t.end(c)
	if err != nil {
		return nil, 0, err
	}
	c = t.begin("footprint.analyze")
	a, err := footprint.Analyze(nest)
	t.end(c)
	if err != nil {
		return nil, 0, err
	}
	for i, c := range a.Classes {
		fields := map[string]any{
			"array":     c.Array,
			"refs":      c.NumRefs(),
			"G":         c.G.String(),
			"spread":    fmt.Sprint(c.Spread()),
			"cum":       fmt.Sprint(c.CumulativeSpread()),
			"invariant": c.FootprintInvariant(),
			"has_write": c.HasWrite(),
		}
		if u, _, ok := c.SpreadCoeffs(); ok {
			fields["coeffs"] = fmt.Sprint(u)
		}
		reg.Emit("analysis.class", fmt.Sprintf("class%d.%s", i, c.Array), fields)
	}
	return &looppart.Program{Nest: nest, Analysis: a}, strategy, nil
}

func (p *pipe) key(t *reqTrace, prog *looppart.Program, procs int, strategy looppart.Strategy) string {
	s := t.begin("plancache.key")
	defer t.end(s)
	return plancache.Key(prog.Nest, procs, strategy.String())
}

func (p *pipe) put(t *reqTrace, key string, raw []byte, dec *looppart.PlanResult) {
	s := t.begin("plancache.put")
	p.cache.PutDecoded(key, raw, dec)
	t.end(s)
}

// search mirrors Program.PartitionCtx for the strategies the workloads
// request: auto tries the comm-free family and falls back to rect.
func (p *pipe) search(t *reqTrace, prog *looppart.Program, strategy looppart.Strategy, procs int) (*looppart.Plan, func([]int64) int, error) {
	if strategy != looppart.Auto {
		return p.family(t, prog, strategy, procs)
	}
	reg := telemetry.Active()
	if plan, assign, err := p.family(t, prog, looppart.CommFree, procs); err == nil {
		reg.Emit("strategy.auto", "comm-free", map[string]any{
			"reason": "a communication-free hyperplane partition exists",
		})
		return plan, assign, nil
	}
	reg.Emit("strategy.auto", "rect", map[string]any{
		"reason": "no communication-free partition; falling back to footprint-optimal rectangles",
	})
	return p.family(t, prog, looppart.Rect, procs)
}

// family mirrors Program.familyPlan and tilePlan: the registry search,
// then the iteration→processor assignment.
func (p *pipe) family(t *reqTrace, prog *looppart.Program, strategy looppart.Strategy, procs int) (*looppart.Plan, func([]int64) int, error) {
	tsp := telemetry.Active().StartSpan("partition." + strategy.String())
	tsp.SetArg("procs", procs)
	defer tsp.End()
	fam, ok := partition.Lookup(strategy.String())
	if !ok {
		return nil, nil, fmt.Errorf("no partition family %q", strategy)
	}
	s := t.begin("partition.search." + strategy.String())
	fp, err := fam.Optimize(context.Background(), prog.Analysis, procs)
	t.end(s)
	if err != nil {
		if errors.Is(err, partition.ErrNoCommFree) {
			return nil, nil, fmt.Errorf("looppart: no communication-free partition exists for this nest")
		}
		return nil, nil, err
	}
	plan := &looppart.Plan{Program: prog, Strategy: strategy, Procs: procs,
		PredictedFootprint: fp.PredictedFootprint, PredictedTraffic: fp.PredictedTraffic}
	switch {
	case fp.Tile != nil:
		assign, err := p.assign(t, prog, *fp.Tile, procs)
		if err != nil {
			return nil, nil, err
		}
		tl := *fp.Tile
		plan.Tile = &tl
		return plan, assign, nil
	case fp.Slab != nil:
		sp := fp.Slab
		plan.Slab = sp
		plan.PredictedFootprint, plan.PredictedTraffic = 0, 0
		return plan, func(pt []int64) int { return sp.SlabOf(pt, procs) }, nil
	case fp.Oblivious != nil:
		plan.Oblivious = fp.Oblivious
		plan.PredictedFootprint, plan.PredictedTraffic = 0, 0
		if fp.Oblivious.Symbolic {
			return plan, nil, nil
		}
		s := t.begin("partition.oblivious_assign")
		assign, err := fp.Oblivious.Assign(tile.BoundsOf(prog.Nest), procs)
		t.end(s)
		return plan, assign, err
	}
	return nil, nil, fmt.Errorf("strategy %s produced an empty plan", strategy)
}

// assign is tilePlan's Θ(|iteration space|) tile→processor walk.
func (p *pipe) assign(t *reqTrace, prog *looppart.Program, tl tile.Tile, procs int) (func([]int64) int, error) {
	s := t.begin("tile.assign")
	defer t.end(s)
	space := tile.BoundsOf(prog.Nest)
	tiling, err := tile.NewTiling(tl, space.Lo)
	if err != nil {
		return nil, err
	}
	asg, err := tile.Assign(tiling, space, procs)
	if err != nil {
		return nil, err
	}
	p.assignCalls.Add(1)
	p.assignPoints.Add(space.Size())
	return asg.ProcOf, nil
}

// encode mirrors Service.encode: the canonical PlanResult JSON, with the
// communication certificate and lower bound when the service runs with
// CommSets.
func (p *pipe) encode(t *reqTrace, plan *looppart.Plan, assign func([]int64) int, res *autotune.Result, key, requested string, strategy looppart.Strategy, procs int) ([]byte, *looppart.PlanResult, error) {
	s := t.begin("service.encode")
	defer t.end(s)
	if requested == "" {
		requested = strategy.String()
	}
	result := &looppart.PlanResult{
		Key:                key,
		Strategy:           requested,
		Resolved:           plan.Strategy.String(),
		Procs:              procs,
		PredictedFootprint: plan.PredictedFootprint,
		PredictedTraffic:   plan.PredictedTraffic,
		Rendered:           plan.String(),
	}
	if res != nil {
		w := res.WinnerCandidate()
		result.Autotuned = true
		result.MeasuredMisses = w.MeasuredMisses
		result.AutotuneRank = w.Rank
	}
	if p.opts.CommSets && assign != nil {
		c := t.begin("commsets.analyze")
		a, err := commsets.ComputeCtx(context.Background(), commsets.Spec{
			Analysis: plan.Program.Analysis,
			Space:    tile.BoundsOf(plan.Program.Nest),
			Procs:    procs,
			Tile:     plan.Tile,
			Assign:   assign,
		}, commsets.Options{})
		t.end(c)
		if err == nil {
			result.Comm = a.Summary()
			p.commCalls.Add(1)
			p.commWords.Add(result.Comm.Words)
		}
	}
	switch {
	case plan.Slab != nil:
		result.Kind = "slab"
		result.SlabNormal = plan.Slab.Normal
		result.SlabWidth = plan.Slab.Width
		result.SlabCommFree = plan.Slab.CommFree
	case plan.Tile != nil:
		result.Kind = "tile"
		if plan.Tile.IsRect() {
			result.TileExtents = plan.Tile.Extents()
		} else {
			l := plan.Tile.L
			result.TileMatrix = make([][]int64, l.Rows())
			for i := range result.TileMatrix {
				row := make([]int64, l.Cols())
				for j := range row {
					row[j] = l.At(i, j)
				}
				result.TileMatrix[i] = row
			}
		}
	case plan.Oblivious != nil:
		result.Kind = "oblivious"
		result.ObliviousOrder = plan.Oblivious.Order
		result.ObliviousSymbolic = plan.Oblivious.Symbolic
	}
	if result.Comm != nil && (plan.Strategy == looppart.Rect || plan.Strategy == looppart.LowerBound) &&
		plan.Tile != nil && plan.Tile.IsRect() {
		c := t.begin("partition.lowerbound")
		lb, err := partition.CommLowerBound(plan.Program.Analysis, procs)
		t.end(c)
		if err == nil {
			bound := lb.Words
			var pct float64
			switch {
			case result.Comm.Words > 0:
				pct = 100 * float64(bound) / float64(result.Comm.Words)
			case bound == 0:
				pct = 100
			}
			result.CommLowerBound = &bound
			result.CommOptimalityPct = &pct
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(result); err != nil {
		return nil, nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), result, nil
}

// tournament mirrors Service.Tournament for the rect and skewed
// strategies the tune items request.
func (p *pipe) tournament(t *reqTrace, req looppart.PlanRequest) (*autotune.Result, error) {
	prog, strategy, err := p.prepare(t, req)
	if err != nil {
		return nil, err
	}
	if strategy != looppart.Rect && strategy != looppart.Skewed {
		return nil, fmt.Errorf("tune items request rect or skewed, got %s", strategy)
	}
	s := t.begin("autotune.tournament")
	res, err := autotune.RunTournamentCtx(context.Background(), prog.Analysis, autotune.TournamentOptions{
		Procs: req.Procs, Strategy: strategy.String(), K: 4, Fingerprint: p.opts.Fingerprint,
	})
	t.end(s)
	if err != nil {
		return nil, err
	}
	w := res.WinnerCandidate()
	assign, err := p.assign(t, prog, w.Tile, req.Procs)
	if err != nil {
		return nil, err
	}
	tl := w.Tile
	plan := &looppart.Plan{Program: prog, Strategy: strategy, Procs: req.Procs, Tile: &tl,
		PredictedFootprint: w.PredictedFootprint}
	if strategy == looppart.Rect {
		plan.PredictedTraffic, _ = prog.Analysis.RectTotalTraffic(w.Tile.Extents())
	}
	key := p.key(t, prog, req.Procs, strategy)
	if raw, dec, err := p.encode(t, plan, assign, res, key, req.Strategy, strategy, req.Procs); err == nil {
		p.put(t, key, raw, dec)
	}
	return res, nil
}
