package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"looppart"
)

// Routes the load generator posts to.
const (
	routePlan    = "/v1/plan"
	routeCertify = "/v1/plan?commsets=1&verify=1"
	routeTune    = "/v1/autotune"
)

// request is one generated request: the universe item and the route.
type request struct {
	idx   int
	route string
}

// workload is a seeded request stream plus the daemon configuration it
// runs against. warm is served once, in order, by one client before the
// timed phase; stream(i) is the i-th timed request.
type workload struct {
	name     string
	why      string
	flags    []string
	opts     looppart.ServiceOptions // the in-process mirror of flags
	warm     []request
	stream   func(i int) request
	capacity int   // distinct timed requests available; 0 = unbounded
	domain   []int // every item the workload may send

	// commPrefix is the number of leading cert requests whose plans
	// define plan_comm_words (certify only).
	commPrefix int
}

// Workload parameters.
const (
	hotKeys       = 64   // hot_hits: distinct keys, all warmed
	hotPaper      = 16   // of which drawn from the paperex grid
	hotMaxMissUS  = 5000 // hot_hits: keys whose first request took ≤ 5 ms, for a steady set-up
	coldStrata    = 32   // cold_search: miss-cost strata
	coldWarm      = 16   // cold_search: warm-up keys, one from each of the cheapest strata
	zipfStrata    = 16
	certStrata    = 16
	tuneStrata    = 8
	zipfSpace     = 8192 // zipf_churn: key space, ~4× what a 1 MiB cache holds
	zipfS         = 1.0  // zipf_churn: exponent
	zipfWarm      = 1024 // zipf_churn: warm-up requests from the same law
	zipfHotKeys   = 64
	certWarm      = 8 // certify: warm-up cert requests, from 8 strata, never timed
	tuneEvery     = 4 // certify: every 4th timed request is a tournament
	certCommPlans = 256
)

// heldOutSeed is kept out of tuning and of claims' own runs: a later
// change validates its claimed gain on it.
const heldOutSeed = 7919

var workloadNames = []string{"hot_hits", "cold_search", "zipf_churn", "certify"}

var workloadWhy = map[string]string{
	"hot_hits":    "64 repeated keys all warmed, so every timed request is a cache hit: parse, analyze, key, lookup, HTTP and middleware only",
	"cold_search": "every request a new key over nest, N, P and strategy: partition search, tile.Assign and encode dominate; the cache never hits",
	"zipf_churn":  "Zipf keys over a key space ~4x the 1 MiB cache with a 64-key hot tier: LRU eviction, re-search, hot-tier rebuild and singleflight",
	"certify":     "comm-eligible rect/lowerbound plans with ?commsets=1&verify=1 plus 1 in 4 autotune tournaments: commsets, lower bound, verify, autotune",
}

// newWorkload builds the named workload's stream for seed.
func newWorkload(name string, seed int64, u *universe, ref *reference) (*workload, error) {
	rnd := rand.New(rand.NewSource(seed))
	w := &workload{name: name, why: workloadWhy[name], opts: looppart.ServiceOptions{Fingerprint: daemonFingerprint()}}
	plan := ref.valid(u, secPlan)
	switch name {
	case "hot_hits":
		keys := pickHot(u, ref, cheaper(plan, ref.missUS, hotMaxMissUS), rnd)
		for _, k := range keys {
			w.warm = append(w.warm, request{k, routePlan})
		}
		w.domain = keys
		w.stream = func(i int) request {
			return request{keys[mix(seed, i)%uint64(len(keys))], routePlan}
		}
	case "cold_search":
		groups := strata(plan, ref.missUS, coldStrata, rnd)
		for _, g := range groups[:coldWarm] {
			w.warm = append(w.warm, request{g[len(g)-1], routePlan})
		}
		perm := interleave(groups, 1)
		w.domain = perm
		w.capacity = len(perm)
		w.stream = func(i int) request { return request{perm[i], routePlan} }
	case "zipf_churn":
		w.flags = []string{"-cache-mb", "1", "-hot-keys", fmt.Sprint(zipfHotKeys)}
		w.opts.CacheBytes = 1 << 20
		w.opts.HotKeys = zipfHotKeys
		// The head of the law is served from the cache, so its cost is
		// the hit cost of a handful of keys (rank 1 alone takes a tenth
		// of the traffic): keys come from the middle half by hit cost.
		// The tail misses, so rank r draws from miss-cost stratum r mod
		// zipfStrata. Both keep every seed's cost mix the same.
		mid := middleHalf(plan, ref.hitUS)
		space := interleave(strata(mid, ref.missUS, zipfStrata, rnd), 0)[:zipfSpace]
		w.domain = space
		cdf := zipfCDF(len(space), zipfS)
		draw := func(salt int64, i int) request {
			x := float64(mix(seed^salt, i)>>11) / (1 << 53) // uniform in [0, 1)
			return request{space[sort.SearchFloat64s(cdf, x)], routePlan}
		}
		for i := 0; i < zipfWarm; i++ {
			w.warm = append(w.warm, draw(0x5eed, i))
		}
		w.stream = func(i int) request { return draw(0, i) }
	case "certify":
		w.flags = []string{"-commsets"}
		w.opts.CommSets = true
		certG := strata(ref.valid(u, secCert), ref.missUS, certStrata, rnd)
		tuneG := strata(ref.valid(u, secTune), ref.missUS, tuneStrata, rnd)
		for _, g := range certG[:certWarm] {
			w.warm = append(w.warm, request{g[len(g)-1], routeCertify})
		}
		w.warm = append(w.warm, request{tuneG[0][len(tuneG[0])-1], routeTune})
		cert, tune := interleave(certG, 1), interleave(tuneG, 1)
		w.domain = append(append([]int(nil), cert...), tune...)
		w.capacity = len(cert) * tuneEvery / (tuneEvery - 1)
		w.commPrefix = certCommPlans
		w.stream = func(i int) request {
			if i%tuneEvery == tuneEvery-1 {
				return request{tune[(i/tuneEvery)%len(tune)], routeTune}
			}
			return request{cert[(i-i/tuneEvery)%len(cert)], routeCertify}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// pickHot draws the hot key set: hotPaper paperex items and the rest
// RandomNest items, one from each hit-cost stratum of its origin, so that
// every seed's hit path costs the same mix.
func pickHot(u *universe, ref *reference, plan []int, rnd *rand.Rand) []int {
	paper, random := byOrigin(u, plan)
	var keys []int
	for _, g := range strata(paper, ref.hitUS, hotPaper, rnd) {
		keys = append(keys, g[0])
	}
	for _, g := range strata(random, ref.hitUS, hotKeys-hotPaper, rnd) {
		keys = append(keys, g[0])
	}
	return shuffled(keys, rnd)
}

// interleave deals the groups round-robin: element j of the result comes
// from group j mod len(groups). skipLast leaves out each group's last
// skipLast elements (reserved for warm-up).
func interleave(groups [][]int, skipLast int) []int {
	var out []int
	for k := 0; k < len(groups[0])-skipLast; k++ {
		for _, g := range groups {
			out = append(out, g[k])
		}
	}
	return out
}

// middleHalf returns the items between the first and third quartile of
// cost.
func middleHalf(idx []int, cost []float64) []int {
	s := append([]int(nil), idx...)
	sort.SliceStable(s, func(a, b int) bool { return cost[s[a]] < cost[s[b]] })
	return s[len(s)/4 : len(s)*3/4]
}

// cheaper returns the items whose cost is at most limit.
func cheaper(idx []int, cost []float64, limit float64) []int {
	var out []int
	for _, i := range idx {
		if cost[i] <= limit {
			out = append(out, i)
		}
	}
	return out
}

func shuffled(idx []int, rnd *rand.Rand) []int {
	out := append([]int(nil), idx...)
	rnd.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// zipfCDF is the cumulative distribution of ranks 1..n under P(r) ∝ r^-s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for r := 1; r <= n; r++ {
		sum += math.Pow(float64(r), -s)
		cdf[r-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// mix is a splitmix64 hash of (seed, i): the i-th draw of a stream that
// any worker can compute without shared generator state.
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
