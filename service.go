package looppart

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"looppart/internal/autotune"
	"looppart/internal/commsets"
	"looppart/internal/loopir"
	"looppart/internal/obs"
	"looppart/internal/partition"
	"looppart/internal/plancache"
	"looppart/internal/telemetry"
)

// CanonicalKey returns the plan-cache key for partitioning the program on
// procs processors with the given strategy. The key is derived from the
// canonicalized nest (renamed indices, sorted references, resolved
// parameters), so the same nest modulo whitespace, index naming, and
// reference order maps to the same key.
func CanonicalKey(prog *Program, procs int, strategy Strategy) string {
	return nestKey(prog.Nest, procs, strategy)
}

// nestKey is the key formula behind CanonicalKey. It needs only the
// parsed nest, so Service.plan keys a request before analyzing it.
func nestKey(n *loopir.Nest, procs int, strategy Strategy) string {
	return plancache.Key(n, procs, strategy.String())
}

// PlanRequest is one planning question: a loop source, its parameter
// bindings, the processor count, and the strategy name ("" = auto).
type PlanRequest struct {
	Source   string           `json:"source"`
	Params   map[string]int64 `json:"params,omitempty"`
	Procs    int              `json:"procs"`
	Strategy string           `json:"strategy,omitempty"`
}

// PlanResult is the served answer. It is what the cache stores (as
// canonical JSON), so a cache hit is bit-identical to the miss that
// filled it.
type PlanResult struct {
	// Key is the canonical cache key the request mapped to.
	Key string `json:"key"`
	// Strategy is the requested strategy; Resolved is the one the plan
	// actually uses (Auto resolves to comm-free or rect).
	Strategy string `json:"strategy"`
	Resolved string `json:"resolved"`
	Procs    int    `json:"procs"`

	// Kind is "tile", "slab", or "oblivious". Tile plans carry the extents
	// (rectangular) or the full L matrix rows (skewed); slab plans carry
	// the hyperplane; oblivious plans carry the bisection split order.
	Kind         string    `json:"kind"`
	TileExtents  []int64   `json:"tile_extents,omitempty"`
	TileMatrix   [][]int64 `json:"tile_matrix,omitempty"`
	SlabNormal   []int64   `json:"slab_normal,omitempty"`
	SlabWidth    int64     `json:"slab_width,omitempty"`
	SlabCommFree bool      `json:"slab_comm_free,omitempty"`
	// ObliviousOrder is the recursive-bisection dimension priority;
	// ObliviousSymbolic marks a policy-only plan over `?N` bounds.
	ObliviousOrder    []int `json:"oblivious_order,omitempty"`
	ObliviousSymbolic bool  `json:"oblivious_symbolic,omitempty"`

	PredictedFootprint float64 `json:"predicted_footprint,omitempty"`
	PredictedTraffic   float64 `json:"predicted_traffic,omitempty"`

	// Autotuned marks a plan selected by a measured tournament rather
	// than the analytic argmin alone; MeasuredMisses is the winner's
	// simulated miss count and AutotuneRank its analytic rank (0 = the
	// tournament confirmed the analytic choice). All three are absent on
	// analytic plans, keeping their encoding unchanged.
	Autotuned      bool  `json:"autotuned,omitempty"`
	MeasuredMisses int64 `json:"measured_misses,omitempty"`
	AutotuneRank   int   `json:"autotune_rank,omitempty"`

	// Comm is the plan's communication certificate — the exact per-epoch
	// inter-processor word total and its per-processor shape
	// (internal/commsets) — attached only when the service runs with
	// ServiceOptions.CommSets, so default encodings are unchanged.
	Comm *commsets.Summary `json:"comm,omitempty"`

	// CommLowerBound is the Dinh–Demmel communication lower bound for the
	// nest over this processor count, and CommOptimalityPct is
	// 100·bound/measured-words — how close the served plan's exact
	// communication comes to the best any rectangular partition could do.
	// Both are attached only alongside Comm and only for plans resolved in
	// the rectangular-grid family (pointers, so a genuine zero survives
	// omitempty while legacy encodings stay byte-identical).
	CommLowerBound    *int64   `json:"comm_lower_bound,omitempty"`
	CommOptimalityPct *float64 `json:"comm_optimality_pct,omitempty"`

	// Rendered is plan.String() — byte-identical to the partition line
	// cmd/looppart prints for the same nest/procs/strategy.
	Rendered string `json:"rendered"`
}

// PlanResponse pairs the decoded result with its canonical encoding and
// how it was served.
type PlanResponse struct {
	Key string
	// Status is "miss" (this request ran the search), "hit" (served from
	// the cache), "hot" (served from the lock-free hot tier), "dedup"
	// (joined a search another request started), or "peer" (filled with
	// the key-owner replica's canonical bytes).
	Status string
	// Raw is the canonical JSON encoding of the PlanResult; identical
	// bytes whether the request hit or missed.
	Raw []byte
	// Result is the decoded result. The struct is owned by this response
	// — callers may reassign its fields — but its slices (tile extents,
	// matrix rows, slab normal) may be shared with the cache's decoded
	// entry and are read-only, the same contract as Raw.
	Result *PlanResult
}

// Hit reports whether the response was served without running a search.
func (r *PlanResponse) Hit() bool { return r.Status != "miss" }

// PeerFiller fetches a plan's canonical bytes from the replica that
// owns its key on the cluster's consistent-hash ring (internal/cluster
// implements it). Fill returns ok=false when this replica should search
// locally instead: it owns the key itself, the owner's circuit breaker
// is open, or the owner could not answer in time. reqBody is the
// marshaled PlanRequest the owner replans from; the returned bytes are
// the owner's canonical PlanResult encoding, byte-identical to what the
// owner itself serves.
type PeerFiller interface {
	Fill(ctx context.Context, key string, reqBody []byte) ([]byte, bool)
}

// ServiceOptions configures a Service.
type ServiceOptions struct {
	// CacheBytes bounds the plan cache (plancache.DefaultMaxBytes when 0).
	CacheBytes int64
	// Store, when non-nil, persists every served plan and warm-starts
	// the in-memory cache from past sessions at construction. The store
	// is keyed by canonical plan key + machine fingerprint + schema, so
	// a restarted daemon serves its first repeat request as a
	// byte-identical hit without re-running the search.
	Store *autotune.Store
	// AutotuneK, when > 0, switches searches to measured tournaments
	// over the top-K analytic candidates (Program.Autotune). 0 keeps the
	// pure analytic pipeline.
	AutotuneK int
	// Fingerprint supplies the tournament's cost constants; zero value
	// means the model defaults. Ignored when AutotuneK == 0.
	Fingerprint autotune.Fingerprint
	// AutotuneCacheLines bounds the simulated caches during tournament
	// replays (0 = infinite, the paper's model). Ignored when
	// AutotuneK == 0.
	AutotuneCacheLines int
	// HotKeys, when > 0, pins the top-N hottest plans in an immutable
	// lock-free tier above the LRU (plancache.HotTier): a hot hit is an
	// atomic pointer load plus a map read, no LRU mutex. 0 disables.
	HotKeys int
	// HotRebuildEvery is the request cadence at which the hot tier is
	// re-snapshotted from the LRU's hit counts
	// (plancache.DefaultHotRebuildEvery when 0).
	HotRebuildEvery int
	// PeerFill, when non-nil, lets a local miss ask the key-owner
	// replica for the canonical bytes before searching. The fill runs
	// inside the singleflight, so concurrent misses for one key cost at
	// most one peer round-trip — and, fleet-wide, one search.
	PeerFill PeerFiller
	// CommSets attaches each searched plan's communication-set summary
	// (exact words per epoch) to the served result. Off by default: the
	// analysis costs a pass over the plan's reference classes, and the
	// extra field changes the canonical plan bytes.
	CommSets bool
	// Strategies, when non-empty, is the set of strategy names this
	// service will plan (the -strategies flag): requests naming any other
	// strategy are rejected before parsing. Empty means all registered
	// strategies are enabled.
	Strategies []string
}

// Service is the embeddable planning facade behind cmd/looppartd: it
// answers PlanRequests through a canonicalized plan cache with
// singleflight deduplication, so repeated and concurrent requests for the
// same nest cost one search. A Service is safe for concurrent use.
type Service struct {
	cache          *plancache.Cache
	hot            *plancache.HotTier
	hotEvery       int64
	group          plancache.Group
	peer           PeerFiller
	store          *autotune.Store
	autotuneK      int
	fingerprint    autotune.Fingerprint
	autotuneCLines int
	commSets       bool
	strategies     map[string]bool // enabled strategy names; nil = all

	requests      atomic.Int64
	searches      atomic.Int64
	cacheHits     atomic.Int64 // memory hits + singleflight joins
	hotHits       atomic.Int64 // served from the lock-free hot tier
	peerHits      atomic.Int64 // filled from the key-owner replica
	peerFallbacks atomic.Int64 // peer fill declined/failed, searched locally
	storeHits     atomic.Int64 // served from the persistent store
	errors        atomic.Int64
	warmLoaded    atomic.Int64 // entries loaded from the store at boot

	// beforeFlight, when set (tests only), runs between a request's
	// missed cache lookups and its singleflight Do.
	beforeFlight func(key string)
}

// NewService returns a ready Service. When a store is configured, its
// entries (this machine fingerprint's, valid ones only) are loaded into
// the in-memory cache before the service answers anything.
func NewService(opts ServiceOptions) *Service {
	s := &Service{
		cache:          plancache.NewCache(opts.CacheBytes),
		hot:            plancache.NewHotTier(opts.HotKeys),
		hotEvery:       int64(opts.HotRebuildEvery),
		peer:           opts.PeerFill,
		store:          opts.Store,
		autotuneK:      opts.AutotuneK,
		fingerprint:    opts.Fingerprint,
		autotuneCLines: opts.AutotuneCacheLines,
		commSets:       opts.CommSets,
	}
	if len(opts.Strategies) > 0 {
		s.strategies = make(map[string]bool, len(opts.Strategies))
		for _, name := range opts.Strategies {
			s.strategies[name] = true
		}
	}
	if s.hotEvery <= 0 {
		s.hotEvery = plancache.DefaultHotRebuildEvery
	}
	if s.hot != nil {
		// A key the LRU evicts or re-fills with different bytes must stop
		// serving from the hot snapshot immediately, not at the next
		// rebuild.
		s.cache.OnInvalidate(s.hot.Invalidate)
	}
	if s.store != nil {
		var loaded int64
		_ = s.store.Each(func(key string, val []byte) {
			s.cache.Put(key, val)
			loaded++
		})
		s.warmLoaded.Store(loaded)
		telemetry.Active().Counter("service.store.warm_loaded").Add(loaded)
	}
	return s
}

// ServiceStats is a point-in-time view of the service counters.
type ServiceStats struct {
	Requests int64 `json:"requests"`
	// Searches counts partition searches actually executed.
	Searches int64 `json:"searches"`
	// CacheHits counts requests served without a search of their own:
	// plan-cache hits plus singleflight joins.
	CacheHits int64 `json:"cache_hits"`
	// HotHits counts requests served from the lock-free hot tier
	// (included in CacheHits: a hot hit is still a local cache hit).
	HotHits int64 `json:"hot_hits,omitempty"`
	// PeerHits counts misses filled with the key-owner replica's
	// canonical bytes instead of a local search.
	PeerHits int64 `json:"peer_hits,omitempty"`
	// PeerFallbacks counts misses where the peer fill declined or
	// failed and the search ran locally after all.
	PeerFallbacks int64 `json:"peer_fallbacks,omitempty"`
	// StoreHits counts requests served from the persistent store after
	// missing the in-memory cache (e.g. post-eviction).
	StoreHits int64 `json:"store_hits,omitempty"`
	// WarmLoaded counts store entries preloaded into the cache at boot.
	WarmLoaded int64                `json:"warm_loaded,omitempty"`
	Errors     int64                `json:"errors"`
	Cache      plancache.Stats      `json:"cache"`
	Hot        *plancache.HotStats  `json:"hot,omitempty"`
	Store      *autotune.StoreStats `json:"store,omitempty"`
}

// Stats returns the current counters.
func (s *Service) Stats() ServiceStats {
	st := ServiceStats{
		Requests:      s.requests.Load(),
		Searches:      s.searches.Load(),
		CacheHits:     s.cacheHits.Load(),
		HotHits:       s.hotHits.Load(),
		PeerHits:      s.peerHits.Load(),
		PeerFallbacks: s.peerFallbacks.Load(),
		StoreHits:     s.storeHits.Load(),
		WarmLoaded:    s.warmLoaded.Load(),
		Errors:        s.errors.Load(),
		Cache:         s.cache.Stats(),
	}
	if s.hot != nil {
		hs := s.hot.Stats()
		st.Hot = &hs
	}
	if s.store != nil {
		ss := s.store.Stats()
		st.Store = &ss
	}
	return st
}

// Autotuned reports whether searches run measured tournaments.
func (s *Service) Autotuned() bool { return s.autotuneK > 0 }

// TopKeys returns the k most-served plan-cache entries with their hit
// counts and byte occupancy (the /debug/cache hot-key dump).
func (s *Service) TopKeys(k int) []plancache.KeyStat { return s.cache.TopKeys(k) }

// Flights snapshots the live singleflight flights — key, owner trace ID,
// and how many coalesced waiters are blocked on each (for /debug/cache).
func (s *Service) Flights() []plancache.FlightInfo { return s.group.Flights() }

// CacheStats returns the plan-cache counters.
func (s *Service) CacheStats() plancache.Stats { return s.cache.Stats() }

// Plan answers req, serving from the cache when possible. ctx bounds only
// this caller's wait: an in-flight search continues after ctx expires and
// still fills the cache. Errors are not cached.
//
// With a PeerFiller configured, a miss asks the key-owner replica
// before searching; with a hot tier, the hottest keys are served above
// the LRU without taking its lock.
func (s *Service) Plan(ctx context.Context, req PlanRequest) (*PlanResponse, error) {
	return s.plan(ctx, req, true)
}

// PlanLocal is Plan without the peer-fill hop: the answer is produced
// from this replica's caches and search alone. It is what the
// /v1/peer/plan handler serves, so a fill is structurally one hop —
// an owner never forwards a peer's question to a third replica.
func (s *Service) PlanLocal(ctx context.Context, req PlanRequest) (*PlanResponse, error) {
	return s.plan(ctx, req, false)
}

// RebuildHot re-snapshots the hot tier from the LRU immediately (the
// service refreshes it every HotRebuildEvery requests on its own).
func (s *Service) RebuildHot() {
	s.hot.Rebuild(s.cache)
}

func (s *Service) plan(ctx context.Context, req PlanRequest, allowPeer bool) (*PlanResponse, error) {
	n := s.requests.Add(1)
	reg := telemetry.Active()
	reg.Counter("service.plan.requests").Add(1)
	if s.hot != nil && n%s.hotEvery == 0 {
		// Periodic snapshot refresh; hits between rebuilds serve the
		// previous snapshot lock-free.
		s.hot.Rebuild(s.cache)
	}

	// The key needs only the parsed nest: a hit never runs the reference
	// analysis, which waits inside the singleflight owner below.
	nest, procs, strategy, err := s.prepare(req)
	if err != nil {
		s.errors.Add(1)
		reg.Counter("service.plan.errors").Add(1)
		return nil, err
	}
	key := nestKey(nest, procs, strategy)
	// Stamp the canonical key on the enclosing request span (the server's
	// root), so a flight record is findable by key.
	obs.SpanFrom(ctx).SetAttr("key", key)

	if raw, dec, ok := s.hot.Get(key); ok {
		s.hotHits.Add(1)
		s.cacheHits.Add(1)
		reg.Counter("service.plan.hot_hit").Add(1)
		reg.Counter("service.plan.cache_hit").Add(1)
		if pr, ok := dec.(*PlanResult); ok {
			return responseFromDecoded(key, "hot", raw, pr), nil
		}
		return response(key, "hot", raw)
	}

	_, csp := obs.StartSpan(ctx, "cache.lookup")
	raw, dec, ok := s.cache.GetDecoded(key)
	if ok {
		csp.SetAttr("outcome", "hit")
		csp.End()
		s.cacheHits.Add(1)
		reg.Counter("service.plan.cache_hit").Add(1)
		if pr, ok := dec.(*PlanResult); ok {
			// The decoded result rides the cache entry: a hit costs a
			// struct copy, not a JSON parse of bytes we produced ourselves.
			return responseFromDecoded(key, "hit", raw, pr), nil
		}
		return response(key, "hit", raw)
	}
	csp.SetAttr("outcome", "miss")
	csp.End()
	if s.store != nil {
		_, ssp := obs.StartSpan(ctx, "store.lookup")
		if raw, ok := s.store.Get(key); ok {
			// Evicted from memory (or written by another process) but
			// still on disk: re-admit and serve the stored bytes — the
			// same canonical encoding a memory hit returns. The one decode
			// this path pays is stored alongside the bytes, so subsequent
			// memory hits skip it.
			ssp.SetAttr("outcome", "hit")
			ssp.End()
			dec := &PlanResult{}
			if err := json.Unmarshal(raw, dec); err != nil {
				s.errors.Add(1)
				reg.Counter("service.plan.errors").Add(1)
				return nil, fmt.Errorf("looppart: corrupt cached plan for %s: %v", key, err)
			}
			s.cache.PutDecoded(key, raw, dec)
			s.storeHits.Add(1)
			s.cacheHits.Add(1)
			reg.Counter("service.plan.store_hit").Add(1)
			return responseFromDecoded(key, "hit", raw, dec), nil
		}
		ssp.SetAttr("outcome", "miss")
		ssp.End()
	}

	if s.beforeFlight != nil {
		s.beforeFlight(key)
	}

	// The singleflight span wraps the wait; fn captures sfctx so that when
	// this caller owns the flight, the search spans attach under it. A
	// coalesced waiter's fn never runs — its span records the owner's
	// trace ID instead, linking the two trees.
	sfctx, sfsp := obs.StartSpan(ctx, "singleflight")
	var searched, filled, late *PlanResult
	lateHit := false
	raw, shared, ownerTrace, err := s.group.Do(sfctx, key, func() ([]byte, error) {
		// A flight for key may have finished, and released its slot,
		// between this caller's lookups and Do: serve what it cached
		// rather than search a second time.
		if raw, dec, ok := s.cache.Recheck(key); ok {
			late, _ = dec.(*PlanResult)
			lateHit = true
			return raw, nil
		}
		// Peer fill runs inside the flight: the local duplicates already
		// collapsed here, and on the key-owner replica the fill requests
		// collapse into its own singleflight — one search fleet-wide.
		if allowPeer && s.peer != nil {
			if dec, raw := s.peerFill(sfctx, key, req); dec != nil {
				filled = dec
				return raw, nil
			}
			s.peerFallbacks.Add(1)
			reg.Counter("service.plan.peer_fallback").Add(1)
		}
		prog, err := analyzeNest(nest)
		if err != nil {
			return nil, err
		}
		s.searches.Add(1)
		reg.Counter("service.plan.search").Add(1)
		sctx, ssp := obs.StartSpan(sfctx, "search")
		ssp.SetAttr("strategy", strategy.String())
		ssp.SetAttr("procs", procs)
		ssp.SetAttr("autotune_k", s.autotuneK)
		raw, dec, err := s.search(sctx, prog, key, procs, req.Strategy, strategy)
		ssp.End()
		if err != nil {
			return nil, err
		}
		_, psp := obs.StartSpan(sfctx, "store.persist")
		psp.SetAttr("bytes", len(raw))
		s.cache.PutDecoded(key, raw, dec)
		s.persist(key, raw)
		psp.End()
		searched = dec
		return raw, nil
	})
	if shared {
		sfsp.SetAttr("role", "waiter")
		if ownerTrace != "" {
			sfsp.SetAttr("owner_trace", ownerTrace)
		}
	} else {
		sfsp.SetAttr("role", "owner")
	}
	sfsp.End()
	if err != nil {
		s.errors.Add(1)
		reg.Counter("service.plan.errors").Add(1)
		return nil, err
	}
	status := "miss"
	if lateHit {
		// This caller owned the flight, but a finished one had already
		// cached the plan: a plain hit.
		s.cacheHits.Add(1)
		reg.Counter("service.plan.cache_hit").Add(1)
		if late != nil {
			return responseFromDecoded(key, "hit", raw, late), nil
		}
		return response(key, "hit", raw)
	}
	if shared {
		// Joining a flight is a logical cache hit: the plan this request
		// needed was already being produced.
		status = "dedup"
		s.cacheHits.Add(1)
		reg.Counter("service.plan.cache_hit").Add(1)
	} else if filled != nil {
		// This caller owned the flight and the key-owner replica supplied
		// the canonical bytes: no local search ran.
		s.peerHits.Add(1)
		reg.Counter("service.plan.peer_hit").Add(1)
		return responseFromDecoded(key, "peer", raw, filled), nil
	} else if searched != nil {
		// This caller owned the flight: the result it just encoded is the
		// result — no round-trip through JSON.
		return responseFromDecoded(key, status, raw, searched), nil
	}
	return response(key, status, raw)
}

// peerFill asks the key-owner replica for key's canonical bytes and, on
// success, admits them locally exactly as a search would — cache and
// store both — so the next request for key is an ordinary local hit.
// Returns (nil, nil) when the fill declined (self-owned key, breaker
// open, owner unreachable) or the owner's bytes failed validation; the
// caller then searches locally.
func (s *Service) peerFill(ctx context.Context, key string, req PlanRequest) (*PlanResult, []byte) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil
	}
	raw, ok := s.peer.Fill(ctx, key, body)
	if !ok {
		return nil, nil
	}
	dec := &PlanResult{}
	if err := json.Unmarshal(raw, dec); err != nil || dec.Key != key {
		// The owner answered with bytes that are not this key's plan —
		// version skew or corruption. Never cache the mismatch; search
		// locally instead.
		telemetry.Active().Counter("service.plan.peer_bad_fill").Add(1)
		return nil, nil
	}
	_, psp := obs.StartSpan(ctx, "store.persist")
	psp.SetAttr("bytes", len(raw))
	psp.SetAttr("source", "peer")
	s.cache.PutDecoded(key, raw, dec)
	s.persist(key, raw)
	psp.End()
	return dec, raw
}

// CommSummary computes the communication-set summary for a served plan
// on demand (the ?commsets=1 envelope): the plan is reconstructed from
// the serialized result alone — like Verify — so the certificate
// describes what was actually served. Works regardless of
// ServiceOptions.CommSets; results already carrying a summary are
// answered from the attached one without recomputation.
func (s *Service) CommSummary(ctx context.Context, req PlanRequest, res *PlanResult) (*commsets.Summary, error) {
	if res.Comm != nil {
		return res.Comm, nil
	}
	prog, procs, _, err := s.prepareProgram(req)
	if err != nil {
		return nil, err
	}
	if procs != res.Procs {
		return nil, fmt.Errorf("looppart: request procs %d != served procs %d", procs, res.Procs)
	}
	plan, err := prog.PlanFromResult(res)
	if err != nil {
		return nil, err
	}
	return plan.CommSummary(ctx)
}

// CommOptimality scores a served plan's exact communication word count
// against the nest's Dinh–Demmel lower bound (the ?commsets=1 envelope's
// comm_lower_bound / comm_optimality_pct fields). It returns non-nil only
// for plans resolved in the rectangular-grid family — rect and lowerbound
// — whose tiles are rectangular: only those provably come from the
// factorization grids the bound minimizes over. Nil results mean "no
// claim", never an error: the envelope simply omits the fields.
func (s *Service) CommOptimality(req PlanRequest, res *PlanResult, words int64) (*int64, *float64) {
	if (res.Resolved != Rect.String() && res.Resolved != LowerBound.String()) ||
		res.Kind != "tile" || len(res.TileExtents) == 0 {
		return nil, nil
	}
	if res.CommLowerBound != nil && res.CommOptimalityPct != nil {
		return res.CommLowerBound, res.CommOptimalityPct
	}
	prog, err := Parse(req.Source, req.Params)
	if err != nil {
		return nil, nil
	}
	lb, err := partition.CommLowerBound(prog.Analysis, res.Procs)
	if err != nil {
		return nil, nil
	}
	bound := lb.Words
	var pct float64
	switch {
	case words > 0:
		pct = 100 * float64(bound) / float64(words)
	case bound == 0:
		pct = 100
	}
	return &bound, &pct
}

// Explain answers req with a fresh, uncached pipeline run and returns the
// decision trace alongside the result. It temporarily installs a private
// telemetry registry to collect the trace, so the caller must guarantee
// no concurrent planning (cmd/looppartd serializes explain requests
// behind a write lock). The computed plan still fills the cache, with
// bytes identical to the normal path.
func (s *Service) Explain(req PlanRequest) (*PlanResponse, string, error) {
	s.requests.Add(1)
	reg := telemetry.New()
	prev := telemetry.SetActive(reg)
	defer telemetry.SetActive(prev)

	prog, procs, strategy, err := s.prepareProgram(req)
	if err != nil {
		s.errors.Add(1)
		return nil, "", err
	}
	key := CanonicalKey(prog, procs, strategy)
	s.searches.Add(1)
	raw, dec, err := s.search(context.Background(), prog, key, procs, req.Strategy, strategy)
	if err != nil {
		s.errors.Add(1)
		return nil, "", err
	}
	s.cache.PutDecoded(key, raw, dec)
	s.persist(key, raw)
	return responseFromDecoded(key, "bypass", raw, dec), reg.FormatDecisionTrace(), nil
}

// strategyCounters are the per-strategy request counter names, resolved
// once rather than concatenated per request.
var strategyCounters = func() (names [len(strategyNames)]string) {
	for st, name := range strategyNames {
		names[st] = "service.plan.strategy." + name
	}
	return names
}()

// prepare validates the request and parses its nest: everything the cache
// key needs, and nothing (no reference analysis) that a hit does not.
func (s *Service) prepare(req PlanRequest) (*loopir.Nest, int, Strategy, error) {
	if req.Procs < 1 {
		return nil, 0, 0, fmt.Errorf("looppart: procs must be >= 1 (got %d)", req.Procs)
	}
	name := req.Strategy
	if name == "" {
		name = Auto.String()
	}
	strategy, ok := ParseStrategy(name)
	if !ok {
		return nil, 0, 0, fmt.Errorf("looppart: unknown strategy %q", req.Strategy)
	}
	if s.strategies != nil && !s.strategies[name] {
		enabled := make([]string, 0, len(s.strategies))
		for n := range s.strategies {
			enabled = append(enabled, n)
		}
		sort.Strings(enabled)
		return nil, 0, 0, fmt.Errorf("looppart: strategy %q is not enabled (enabled: %s)",
			name, strings.Join(enabled, ", "))
	}
	telemetry.Active().Counter(strategyCounters[strategy]).Add(1)
	n, err := parseNest(req.Source, req.Params)
	if err != nil {
		return nil, 0, 0, err
	}
	return n, req.Procs, strategy, nil
}

// prepareProgram is prepare plus the reference analysis, for the entry
// points that always plan or check (Explain, Tournament, CommSummary,
// Verify).
func (s *Service) prepareProgram(req PlanRequest) (*Program, int, Strategy, error) {
	n, procs, strategy, err := s.prepare(req)
	if err != nil {
		return nil, 0, 0, err
	}
	prog, err := analyzeNest(n)
	if err != nil {
		return nil, 0, 0, err
	}
	return prog, procs, strategy, nil
}

// persist writes a served plan through to the store, if one is attached.
// Store failures are counted, never fatal: the plan is already served and
// cached in memory.
func (s *Service) persist(key string, raw []byte) {
	if s.store == nil {
		return
	}
	if err := s.store.Put(key, raw); err != nil {
		telemetry.Active().Counter("service.store.put_errors").Add(1)
	}
}

// Tournament runs a measured plan tournament for req on demand and
// returns the full predicted-vs-measured result, regardless of the
// service's autotune mode. The winner is persisted like any served plan,
// so a later Plan call for the same nest hits.
func (s *Service) Tournament(req PlanRequest) (*autotune.Result, error) {
	s.requests.Add(1)
	prog, procs, strategy, err := s.prepareProgram(req)
	if err != nil {
		s.errors.Add(1)
		return nil, err
	}
	k := s.autotuneK
	if k <= 0 {
		k = 4
	}
	s.searches.Add(1)
	plan, res, err := prog.Autotune(context.Background(), procs, strategy, AutotuneOptions{
		TopK: k, Fingerprint: s.fingerprint, CacheLines: s.autotuneCLines,
	})
	if err != nil {
		s.errors.Add(1)
		return nil, err
	}
	if res == nil {
		// Comm-free or a fixed-shape strategy: no tournament to report.
		return nil, fmt.Errorf("looppart: strategy %s resolves without a tournament (plan %s)",
			strategy.String(), plan.String())
	}
	key := CanonicalKey(prog, procs, strategy)
	if raw, dec, err := s.encode(context.Background(), plan, res, key, req.Strategy, strategy, procs); err == nil {
		s.cache.PutDecoded(key, raw, dec)
		s.persist(key, raw)
	}
	return res, nil
}

// search runs the partition search (a measured tournament in autotune
// mode) and encodes the result canonically, returning both the canonical
// bytes and the decoded result they encode.
func (s *Service) search(ctx context.Context, prog *Program, key string, procs int, requested string, strategy Strategy) ([]byte, *PlanResult, error) {
	var (
		plan *Plan
		res  *autotune.Result
		err  error
	)
	if s.autotuneK > 0 {
		plan, res, err = prog.Autotune(ctx, procs, strategy, AutotuneOptions{
			TopK: s.autotuneK, Fingerprint: s.fingerprint, CacheLines: s.autotuneCLines,
		})
	} else {
		plan, err = prog.Partition(ctx, procs, strategy)
	}
	if err != nil {
		return nil, nil, err
	}
	return s.encode(ctx, plan, res, key, requested, strategy, procs)
}

// encodeBufPool recycles the JSON render buffers: encode copies the
// canonical bytes out (the cache retains them indefinitely), so the
// buffer itself can be reused across requests.
var encodeBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encode renders the canonical JSON for a served plan (res non-nil marks
// a tournament winner), returning the bytes and the PlanResult they
// encode so callers can cache both without a decode round-trip.
func (s *Service) encode(ctx context.Context, plan *Plan, res *autotune.Result, key, requested string, strategy Strategy, procs int) ([]byte, *PlanResult, error) {
	if requested == "" {
		requested = strategy.String()
	}
	result := &PlanResult{
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
	if s.commSets {
		// Best-effort: a plan whose communication sets cannot be computed
		// (e.g. scan budget exceeded) is still a valid plan; it is served
		// without the certificate.
		if sum, err := plan.CommSummary(ctx); err == nil {
			result.Comm = sum
		} else {
			telemetry.Active().Counter("service.plan.comm_errors").Add(1)
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
	// With the exact word count in hand, sandwich it against the
	// communication lower bound — but only for plans the rectangular-grid
	// family produced (rect and lowerbound): those provably come from the
	// same factorization grids the bound minimizes over, so bound ≤ words
	// is an invariant, not a hope. Skewed and fixed-shape plans may sit
	// outside that family.
	if result.Comm != nil && (plan.Strategy == Rect || plan.Strategy == LowerBound) &&
		plan.Tile != nil && plan.Tile.IsRect() {
		if lb, err := partition.CommLowerBound(plan.Program.Analysis, procs); err == nil {
			bound := lb.Words
			var pct float64
			switch {
			case result.Comm.Words > 0:
				pct = 100 * float64(bound) / float64(result.Comm.Words)
			case bound == 0:
				pct = 100 // zero communication is trivially optimal
			}
			result.CommLowerBound = &bound
			result.CommOptimalityPct = &pct
		}
	}
	buf := encodeBufPool.Get().(*bytes.Buffer)
	defer encodeBufPool.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(result); err != nil {
		return nil, nil, err
	}
	// Drop Encode's trailing newline so the stored value is exactly the
	// JSON object; transports add their own framing. Copy out of the
	// pooled buffer: the cache keeps the returned slice.
	b := bytes.TrimRight(buf.Bytes(), "\n")
	raw := make([]byte, len(b))
	copy(raw, b)
	return raw, result, nil
}

// response decodes raw into a PlanResponse.
func response(key, status string, raw []byte) (*PlanResponse, error) {
	res := &PlanResult{}
	if err := json.Unmarshal(raw, res); err != nil {
		return nil, fmt.Errorf("looppart: corrupt cached plan for %s: %v", key, err)
	}
	return &PlanResponse{Key: key, Status: status, Raw: raw, Result: res}, nil
}

// responseFromDecoded builds a PlanResponse around an already-decoded
// result without re-parsing raw. The PlanResult struct is copied so the
// response owns it; the slices inside stay shared with the cache entry
// under its read-only contract.
func responseFromDecoded(key, status string, raw []byte, dec *PlanResult) *PlanResponse {
	res := *dec
	return &PlanResponse{Key: key, Status: status, Raw: raw, Result: &res}
}
