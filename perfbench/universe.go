package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"

	"looppart"
	"looppart/internal/paperex"
	"looppart/internal/verify"
)

// The universe is a fixed, index-addressed catalogue of planning
// requests. Item i is a pure function of i, so any seed's workload can be
// drawn from it and every served body checked against the shipped
// reference file, which holds one digest per item (or "-" for an item the
// planner rejects, a duplicate key, or an item over the planning budget).
//
// Sections:
//
//	plan  /v1/plan requests for hot_hits, cold_search and zipf_churn:
//	      the paperex grid (all six strategies, several N and P; it
//	      contains every golden_strategies.txt combination) followed by
//	      verify.RandomNest nests with extents up to 256.
//	cert  /v1/plan?commsets=1&verify=1 requests for certify: rect and
//	      lowerbound plans that carry an exact communication count and a
//	      Dinh–Demmel lower bound.
//	tune  POST /v1/autotune requests for certify (k=4 tournaments).
const (
	universeSeed = 0x1993_0813
	randomPlan   = 32000
	randomCert   = 14000
	randomTune   = 600
)

// section identifies which part of the universe an item belongs to.
type section int

const (
	secPlan section = iota
	secCert
	secTune
)

func (s section) String() string { return [...]string{"plan", "cert", "tune"}[s] }

// item is one planning request of the universe.
type item struct {
	sec    section
	origin string // "paper:<name>" or "random"
	req    looppart.PlanRequest
}

// body is the request's JSON encoding, the bytes the daemon receives.
func (it item) body() []byte {
	b, err := json.Marshal(it.req)
	if err != nil {
		panic(err) // PlanRequest always marshals
	}
	return b
}

var strategies = []string{"auto", "rect", "skewed", "comm-free", "lowerbound", "oblivious"}

// paper nests by loop shape: 3-D nests get smaller N so that iteration
// spaces stay within the planning budget, and the skewed search (minutes
// on 3-D parallel nests) is left out for them.
var (
	paper2D    = []string{"example10", "example3", "example7ref", "example9"}
	paper3D    = []string{"example1ref", "example8", "example8doseq", "fig9stencil", "matmulsync"}
	paperFixed = []string{"example2", "example6"}
	paperN2D   = []int64{12, 24, 40, 64, 100, 160, 256, 400}
	paperN3D   = []int64{8, 12, 16, 24, 32, 48}
	paperProcs = []int{4, 16, 8, 64}
	certNames  = []string{"example10", "example3", "example8", "example9", "fig9stencil"}
	certN      = map[string][]int64{"example10": {16, 24, 40, 64}, "example3": {16, 24, 40, 64, 100}, "example9": {16, 24, 40, 64, 100}, "example8": {8, 12, 16, 24}, "fig9stencil": {8, 12, 16, 24}}
	procChoice = []int{2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
)

// universe is the ordered item list; offsets locate each section.
type universe struct {
	items  []item
	offset [3]int // first index of each section
}

func buildUniverse() *universe {
	u := &universe{}
	add := func(it item) { u.items = append(u.items, it) }

	u.offset[secPlan] = len(u.items)
	for _, name := range paperFixed {
		for _, p := range paperProcs {
			for _, s := range strategies {
				add(paperItem(secPlan, name, 24, p, s))
			}
		}
	}
	for _, name := range paper2D {
		for _, n := range paperN2D {
			for _, p := range paperProcs {
				for _, s := range strategies {
					add(paperItem(secPlan, name, n, p, s))
				}
			}
		}
	}
	for _, name := range paper3D {
		for _, n := range paperN3D {
			for _, p := range paperProcs {
				for _, s := range strategies {
					if s != "skewed" {
						add(paperItem(secPlan, name, n, p, s))
					}
				}
			}
		}
	}
	for i := 0; i < randomPlan; i++ {
		rnd := itemRand(secPlan, i)
		ext := []int64{8, 16, 32, 64, 128, 256}[rnd.Intn(6)]
		src := verify.RandomNest(rnd, randomConfig(ext))
		add(item{sec: secPlan, origin: "random", req: looppart.PlanRequest{
			Source:   src,
			Procs:    procChoice[rnd.Intn(len(procChoice))],
			Strategy: strategies[rnd.Intn(len(strategies))],
		}})
	}

	u.offset[secCert] = len(u.items)
	for _, name := range certNames {
		for _, n := range certN[name] {
			for _, p := range paperProcs {
				for _, s := range []string{"rect", "lowerbound"} {
					add(paperItem(secCert, name, n, p, s))
				}
			}
		}
	}
	for i := 0; i < randomCert; i++ {
		rnd := itemRand(secCert, i)
		ext := []int64{8, 16, 32, 64}[rnd.Intn(4)]
		src := verify.RandomNest(rnd, randomConfig(ext))
		add(item{sec: secCert, origin: "random", req: looppart.PlanRequest{
			Source:   src,
			Procs:    procChoice[rnd.Intn(len(procChoice))],
			Strategy: []string{"rect", "lowerbound"}[rnd.Intn(2)],
		}})
	}

	u.offset[secTune] = len(u.items)
	for i := 0; i < randomTune; i++ {
		rnd := itemRand(secTune, i)
		ext := []int64{8, 12, 16, 24}[rnd.Intn(4)]
		src := verify.RandomNest(rnd, randomConfig(ext))
		add(item{sec: secTune, origin: "random", req: looppart.PlanRequest{
			Source:   src,
			Procs:    []int{4, 8, 16}[rnd.Intn(3)],
			Strategy: "rect",
		}})
	}
	return u
}

func paperItem(sec section, name string, n int64, procs int, strategy string) item {
	return item{sec: sec, origin: "paper:" + name, req: looppart.PlanRequest{
		Source:   paperex.All[name],
		Params:   map[string]int64{"N": n, "T": 2},
		Procs:    procs,
		Strategy: strategy,
	}}
}

// randomConfig is verify.DefaultGenConfig with a larger extent: the
// differential harness keeps nests enumerable, the benchmark wants
// iteration spaces spanning several decades.
func randomConfig(maxExtent int64) verify.GenConfig {
	cfg := verify.DefaultGenConfig
	cfg.MaxExtent = maxExtent
	return cfg
}

// itemRand is item i's private generator, so items are independent of
// one another and of the order in which they are built.
func itemRand(sec section, i int) *rand.Rand {
	return rand.New(rand.NewSource(universeSeed + int64(sec)<<32 + int64(i)))
}

// section returns the indices of sec's items.
func (u *universe) section(sec section) (lo, hi int) {
	lo = u.offset[sec]
	hi = len(u.items)
	if sec < secTune {
		hi = u.offset[sec+1]
	}
	return lo, hi
}

// digest hashes every request body, pinning the universe the reference
// file was made from.
func (u *universe) digest() string {
	h := sha256.New()
	for _, it := range u.items {
		h.Write(it.body())
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// bodyDigest is the reference form of one served body: the first 48 bits
// of its SHA-256.
func bodyDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6])
}

// reference holds the expected body digest of every universe item ("" =
// excluded) and the item's cost as measured when the file was made: the
// first (searching) request and a repeated (cache-hit) one. The costs
// only order items into strata, so that every seed draws the same cost
// mix; they are never compared with a run's timings.
type reference struct {
	header string
	want   []string
	missUS []float64
	hitUS  []float64
}

const refHeaderPrefix = "# perfbench reference v2 "

func refHeader(u *universe) string {
	return fmt.Sprintf("%splan=%d cert=%d tune=%d universe=%s", refHeaderPrefix,
		u.offset[secCert]-u.offset[secPlan], u.offset[secTune]-u.offset[secCert],
		len(u.items)-u.offset[secTune], u.digest())
}

// loadReference reads the reference file and checks that it was made
// from this exact universe.
func loadReference(path string, u *universe) (*reference, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	ref := &reference{}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			if strings.HasPrefix(line, refHeaderPrefix) {
				ref.header = line
			}
			continue
		}
		var digest string
		var miss, hit float64
		if line != "-" {
			if _, err := fmt.Sscanf(line, "%s %g %g", &digest, &miss, &hit); err != nil {
				return nil, fmt.Errorf("reference %s: bad line %q", path, line)
			}
		}
		ref.want = append(ref.want, digest)
		ref.missUS = append(ref.missUS, miss)
		ref.hitUS = append(ref.hitUS, hit)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if want := refHeader(u); ref.header != want {
		return nil, fmt.Errorf("reference %s was made from another universe:\n  file: %s\n  here: %s", path, ref.header, want)
	}
	if len(ref.want) != len(u.items) {
		return nil, fmt.Errorf("reference %s has %d entries, universe has %d", path, len(ref.want), len(u.items))
	}
	return ref, nil
}

// valid returns the section's items that have a reference digest, in
// index order.
func (r *reference) valid(u *universe, sec section) []int {
	lo, hi := u.section(sec)
	var out []int
	for i := lo; i < hi; i++ {
		if r.want[i] != "" {
			out = append(out, i)
		}
	}
	return out
}

// byOrigin splits indices by whether they come from the paper's nests.
func byOrigin(u *universe, idx []int) (paper, random []int) {
	for _, i := range idx {
		if strings.HasPrefix(u.items[i].origin, "paper:") {
			paper = append(paper, i)
		} else {
			random = append(random, i)
		}
	}
	return paper, random
}

// byStrategy groups indices by requested strategy, in strategies order.
func byStrategy(u *universe, idx []int) [][]int {
	out := make([][]int, len(strategies))
	for _, i := range idx {
		for k, s := range strategies {
			if u.items[i].req.Strategy == s {
				out[k] = append(out[k], i)
			}
		}
	}
	return out
}

// strata sorts idx by cost, cuts it into k groups of equal size (the
// remainder is dropped) and shuffles each group: drawing from the groups
// in turn gives every seed the same cost mix.
func strata(idx []int, cost []float64, k int, rnd *rand.Rand) [][]int {
	s := append([]int(nil), idx...)
	sort.SliceStable(s, func(a, b int) bool { return cost[s[a]] < cost[s[b]] })
	size := len(s) / k
	out := make([][]int, k)
	for g := range out {
		out[g] = shuffled(s[g*size:(g+1)*size], rnd)
	}
	return out
}
