package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"looppart"
	"looppart/internal/server"
	"looppart/internal/telemetry"
)

var (
	setupOnce sync.Once
	testU     *universe
	testRef   *reference
	setupErr  error
)

func loadTestUniverse(t *testing.T) (*universe, *reference) {
	t.Helper()
	setupOnce.Do(func() {
		testU = buildUniverse()
		testRef, setupErr = loadReference(filepath.Join("testdata", "reference.txt"), testU)
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return testU, testRef
}

// streamDigest hashes the first n timed requests (route and body) of a
// workload's stream, and its warm-up.
func streamDigest(t *testing.T, name string, seed int64, n int) string {
	u, ref := loadTestUniverse(t)
	w, err := newWorkload(name, seed, u, ref)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range w.warm {
		fmt.Fprintf(h, "warm %s %s\n", r.route, u.items[r.idx].body())
	}
	for i := 0; i < n; i++ {
		r := w.stream(i)
		fmt.Fprintf(h, "%s %s\n", r.route, u.items[r.idx].body())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// The same seed gives a byte-identical request stream, now and across
// commits: the digests of seed 1 are pinned.
func TestStreamDeterministic(t *testing.T) {
	pinned := map[string]string{
		"hot_hits":    "0e4987dfa8c54089",
		"cold_search": "574169645729e231",
		"zipf_churn":  "5d496e832ec42cb5",
		"certify":     "0d7cafec0ef3ac13",
	}
	for _, name := range workloadNames {
		a := streamDigest(t, name, 1, 4096)
		if b := streamDigest(t, name, 1, 4096); a != b {
			t.Errorf("%s: two builds of seed 1 differ: %s vs %s", name, a, b)
		}
		if a != pinned[name] {
			t.Errorf("%s: seed 1 stream digest %s, pinned %s", name, a, pinned[name])
		}
		if c := streamDigest(t, name, heldOutSeed, 4096); c == a {
			t.Errorf("%s: seeds 1 and %d give the same stream", name, heldOutSeed)
		}
	}
}

// Where the universe overlaps testdata/golden_strategies.txt (the paperex
// nests at N=24, T=2 on 4 and 16 processors), the reference agrees with
// the golden plan bytes, and golden errors are excluded items.
func TestReferenceAgreesWithGolden(t *testing.T) {
	u, ref := loadTestUniverse(t)
	f, err := os.Open(filepath.Join("..", "testdata", "golden_strategies.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type combo struct {
		name, strategy string
		procs          int
	}
	golden := map[combo]string{} // "" = the golden run errors
	var cur combo
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if _, err := fmt.Sscanf(line, "=== %s strategy=%s procs=%d ===", &cur.name, &cur.strategy, &cur.procs); err == nil {
			golden[cur] = ""
			continue
		}
		if js, ok := strings.CutPrefix(line, "json: "); ok {
			golden[cur] = js
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	lo, hi := u.section(secPlan)
	overlap, bytesChecked := 0, 0
	for i := lo; i < hi; i++ {
		it := u.items[i]
		name, ok := strings.CutPrefix(it.origin, "paper:")
		if !ok || it.req.Params["N"] != 24 {
			continue
		}
		js, ok := golden[combo{name, it.req.Strategy, it.req.Procs}]
		if !ok {
			continue
		}
		overlap++
		switch {
		case js == "" && ref.want[i] != "":
			t.Errorf("item %d (%s %s p%d): golden run errors, reference has %s", i, name, it.req.Strategy, it.req.Procs, ref.want[i])
		case js != "" && ref.want[i] != bodyDigest([]byte(js)):
			t.Errorf("item %d (%s %s p%d): reference %q, golden bytes digest %s", i, name, it.req.Strategy, it.req.Procs, ref.want[i], bodyDigest([]byte(js)))
		case js != "":
			bytesChecked++
		}
	}
	if bytesChecked < 20 {
		t.Errorf("only %d golden plans overlap the reference (%d combos)", bytesChecked, overlap)
	}
	t.Logf("%d golden combos overlap the universe, %d plan bodies compared", overlap, bytesChecked)
}

// A sample of every section re-plans to the reference digest through the
// layer-by-layer pipeline the traced run uses, so the pipeline cannot
// drift from the service it mirrors.
func TestPipelineMatchesReference(t *testing.T) {
	u, ref := loadTestUniverse(t)
	rnd := rand.New(rand.NewSource(7))
	chk := newChecker(ref)
	for _, sc := range []struct {
		sec      section
		route    string
		commSets bool
		n        int
	}{{secPlan, routePlan, false, 60}, {secCert, routeCertify, true, 20}, {secTune, routeTune, true, 4}} {
		p := newPipe(looppart.ServiceOptions{Fingerprint: daemonFingerprint(), CommSets: sc.commSets})
		for _, idx := range shuffled(ref.valid(u, sc.sec), rnd)[:sc.n] {
			r := request{idx, sc.route}
			resp, err := p.serve(nil, r, u.items[idx].req)
			chk.check(r, resp, err)
		}
	}
	if chk.failed() != 0 {
		t.Fatalf("%d of %d pipeline answers wrong; first: %s", chk.failed(), chk.attempts(), chk.sample)
	}
}

// The traced pipeline is shared by the closed loop's workers, and a
// singleflight owner records its search spans from the flight's own
// goroutine: run it concurrently (under -race in CI-style runs) and check
// every answer and every span tree.
func TestTracedPipelineConcurrent(t *testing.T) {
	u, ref := loadTestUniverse(t)
	w, err := newWorkload("zipf_churn", 2, u, ref)
	if err != nil {
		t.Fatal(err)
	}
	p := newPipe(w.opts)
	chk := newChecker(ref)
	epoch := time.Now()
	closedLoop(1500, time.Time{}, func(i int) (string, bool) {
		r := w.stream(i)
		tr := &reqTrace{epoch: epoch, id: int32(i)}
		resp, err := p.serve(tr, r, u.items[r.idx].req)
		if len(tr.spans) == 0 || tr.spans[0].name != "request" || len(tr.stack) != 0 {
			t.Errorf("request %d: malformed span tree %+v", i, tr.spans)
		}
		for _, s := range tr.spans {
			if s.end < s.start {
				t.Errorf("request %d: span %s never ended", i, s.name)
			}
		}
		return resp.cache, chk.check(r, resp, err)
	})
	if chk.failed() != 0 {
		t.Fatalf("%d of %d answers wrong; first: %s", chk.failed(), chk.attempts(), chk.sample)
	}
}

// Each workload stays on the layer it is meant to stress, measured
// through the real HTTP handler: hot_hits searches nothing after warm-up,
// cold_search never hits, zipf_churn evicts and serves hot hits, and
// every certify plan carries its communication certificate (the checker
// fails a plan without one).
func TestWorkloadShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("replays thousands of requests")
	}
	u, ref := loadTestUniverse(t)
	prev := telemetry.SetActive(telemetry.New())
	defer telemetry.SetActive(prev)
	for _, tc := range []struct {
		name string
		n    int
	}{{"hot_hits", 2000}, {"cold_search", 300}, {"zipf_churn", 12000}, {"certify", 120}} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := newWorkload(tc.name, 2, u, ref)
			if err != nil {
				t.Fatal(err)
			}
			bodies := map[int][]byte{}
			for _, idx := range w.domain {
				bodies[idx] = u.items[idx].body()
			}
			for _, r := range w.warm {
				bodies[r.idx] = u.items[r.idx].body()
			}
			svc := looppart.NewService(w.opts)
			send := handlerSender(server.New(server.Config{Service: svc, Registry: telemetry.Active()}).Handler())
			chk := newChecker(ref)
			for _, r := range w.warm {
				serve(send, chk, bodies, r)
			}
			before := svc.Stats()
			st := closedLoop(tc.n, time.Time{}, func(i int) (string, bool) { return serve(send, chk, bodies, w.stream(i)) })
			after := svc.Stats()
			if chk.failed() != 0 {
				t.Fatalf("%d failed; first: %s", chk.failed(), chk.sample)
			}
			searches := after.Searches - before.Searches
			hits := after.CacheHits - before.CacheHits
			switch tc.name {
			case "hot_hits":
				if searches != 0 {
					t.Errorf("hot_hits ran %d searches after warm-up", searches)
				}
			case "cold_search":
				if hits != 0 || st.status["miss"] != tc.n {
					t.Errorf("cold_search: %d cache hits, %d misses of %d", hits, st.status["miss"], tc.n)
				}
			case "zipf_churn":
				if ev := after.Cache.Evictions - before.Cache.Evictions; ev == 0 {
					t.Errorf("zipf_churn evicted nothing in %d requests", tc.n)
				}
				if hot := after.HotHits - before.HotHits; hot == 0 {
					t.Errorf("zipf_churn served no hot hits in %d requests", tc.n)
				}
			case "certify":
				if len(chk.words) == 0 {
					t.Errorf("certify served no communication certificates")
				}
			}
			t.Logf("%s: %d requests, statuses %v, searches %d, hits %d", tc.name, st.attempted, st.status, searches, hits)
		})
	}
}

// hot_hits warms exactly its key set: 64 distinct keys, paperex and
// RandomNest nests both represented.
func TestHotKeySet(t *testing.T) {
	u, ref := loadTestUniverse(t)
	w, err := newWorkload("hot_hits", 1, u, ref)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[int]bool{}
	paper := 0
	for _, idx := range w.domain {
		distinct[idx] = true
		if strings.HasPrefix(u.items[idx].origin, "paper:") {
			paper++
		}
	}
	if len(distinct) != hotKeys || len(w.warm) != hotKeys {
		t.Errorf("hot_hits has %d distinct keys and %d warm-ups, want %d", len(distinct), len(w.warm), hotKeys)
	}
	if paper != hotPaper {
		t.Errorf("hot_hits has %d paperex keys, want %d", paper, hotPaper)
	}
}
