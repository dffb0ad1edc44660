package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"looppart"
	"looppart/internal/cluster"
	"looppart/internal/loopir"
	"looppart/internal/obs"
	"looppart/internal/plancache"
	"looppart/internal/telemetry"
)

// fleetReplica is one member of an in-process test fleet: a full server
// stack with a peer-fill client over the shared ring.
type fleetReplica struct {
	member string
	svc    *looppart.Service
	client *cluster.Client
	srv    *Server
	ts     *httptest.Server
}

// newTestFleet boots n replicas wired into one consistent-hash ring,
// the same topology cmd/looppartd builds from -peers. Listeners are
// bound before any server starts so every member name is known up
// front.
func newTestFleet(t *testing.T, n int, recorder *obs.Recorder) []*fleetReplica {
	t.Helper()
	reps := make([]*fleetReplica, n)
	members := make([]string, n)
	for i := range reps {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = &fleetReplica{member: cluster.MemberName(ln.Addr().String())}
		members[i] = reps[i].member
		reps[i].ts = &httptest.Server{Listener: ln}
	}
	for i, r := range reps {
		r.client = cluster.New(cluster.Options{Self: r.member, Members: members})
		r.svc = looppart.NewService(looppart.ServiceOptions{PeerFill: r.client})
		cfg := Config{Service: r.svc, Registry: telemetry.New(), Cluster: r.client}
		if i == 0 && recorder != nil {
			cfg.Recorder = recorder
		}
		r.srv = New(cfg)
		r.ts.Config = &http.Server{Handler: r.srv.Handler()}
		r.ts.Start()
		t.Cleanup(r.ts.Close)
	}
	return reps
}

// ownedBody returns a plan request body whose canonical key is owned by
// owner on ring, found by scanning processor counts.
func ownedBody(t *testing.T, ring *cluster.Ring, owner string) []byte {
	t.Helper()
	prog, err := looppart.Parse(testNest, nil)
	if err != nil {
		t.Fatal(err)
	}
	for procs := 2; procs < 512; procs++ {
		key := looppart.CanonicalKey(prog, procs, looppart.Rect)
		if ring.Owner(key) == owner {
			return planBody("rect", procs)
		}
	}
	t.Fatalf("no procs count in [2,512) maps to owner %s", owner)
	return nil
}

// TestClusterSingleSearchFleetWide is the clustering acceptance test:
// K concurrent misses for one key, spread across every replica of a
// 3-member fleet, perform exactly one search fleet-wide — the local
// duplicates collapse in each replica's singleflight, the cross-replica
// duplicates collapse in the key owner's — and every response is
// byte-identical no matter which replica served it.
func TestClusterSingleSearchFleetWide(t *testing.T) {
	const K = 9
	reps := newTestFleet(t, 3, nil)
	// Gate the /v1/plan handlers so all K requests are genuinely in
	// flight together. Peer fills (/v1/peer/plan) bypass the gate: the
	// owner must be able to answer while the gated requests overlap.
	var barrier sync.WaitGroup
	barrier.Add(K)
	gate := func() {
		barrier.Done()
		barrier.Wait()
	}
	for _, r := range reps {
		r.srv.testPlanGate = gate
	}

	body := planBody("rect", 16)
	bodies := make([][]byte, K)
	var wg sync.WaitGroup
	wg.Add(K)
	for i := 0; i < K; i++ {
		go func(i int) {
			defer wg.Done()
			resp, data := postPlan(t, reps[i%len(reps)].ts.URL, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			bodies[i] = data
		}(i)
	}
	wg.Wait()

	var fleetSearches int64
	for i, r := range reps {
		st := r.svc.Stats()
		fleetSearches += st.Searches
		t.Logf("replica %d: %d searches, %d peer hits, %d cache hits", i, st.Searches, st.PeerHits, st.CacheHits)
	}
	if fleetSearches != 1 {
		t.Errorf("fleet searched %d times, want exactly 1", fleetSearches)
	}
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs across replicas", i)
		}
	}
}

// TestClusterOwnerCrashFallsBackToLocalSearch kills the key-owner
// replica mid-fleet: the surviving replica's peer fill fails and its
// local search serves the request anyway.
func TestClusterOwnerCrashFallsBackToLocalSearch(t *testing.T) {
	reps := newTestFleet(t, 2, nil)
	// A key owned by replica 1, requested from replica 0 after 1 dies.
	body := ownedBody(t, reps[0].client.Ring(), reps[1].member)
	reps[1].ts.Close()

	resp, data := postPlan(t, reps[0].ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Plancache"); got != "miss" {
		t.Errorf("X-Plancache = %q, want miss (local fallback search)", got)
	}
	st := reps[0].svc.Stats()
	if st.Searches != 1 || st.PeerFallbacks != 1 || st.PeerHits != 0 {
		t.Errorf("stats = %d searches, %d fallbacks, %d peer hits; want 1, 1, 0",
			st.Searches, st.PeerFallbacks, st.PeerHits)
	}
}

// TestClusterUnplannableRequestsKeepBreakerClosed sends a stream of
// requests that parse but fail the reference analysis (a doseq variable
// in a subscript) to a replica that does not own their key. The owner
// answers each peer fill with 422; that refusal says nothing about the
// owner's health, so the breaker must stay closed, and the requesting
// replica must report the analysis error itself without searching.
func TestClusterUnplannableRequestsKeepBreakerClosed(t *testing.T) {
	reps := newTestFleet(t, 2, nil)
	const src = `
doseq (t, 1, 4)
  doall (i, 1, 16)
    A[i + t] = A[i]
  enddoall
enddoseq`
	nest, err := loopir.Parse(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	ring := reps[0].client.Ring()
	const n = 3 * cluster.DefaultBreakerThreshold
	var bodies [][]byte
	for procs := 2; procs < 4096 && len(bodies) < n; procs++ {
		if ring.Owner(plancache.Key(nest, procs, "rect")) == reps[1].member {
			b, _ := json.Marshal(looppart.PlanRequest{Source: src, Procs: procs, Strategy: "rect"})
			bodies = append(bodies, b)
		}
	}
	if len(bodies) < n {
		t.Fatalf("found %d keys owned by replica 1, want %d", len(bodies), n)
	}
	// The error a lone service reports for the same nest.
	_, wantErr := looppart.NewService(looppart.ServiceOptions{}).Plan(context.Background(),
		looppart.PlanRequest{Source: src, Procs: 4, Strategy: "rect"})
	if wantErr == nil {
		t.Fatal("a lone service planned a nest with a doseq variable in a subscript")
	}
	for round := 0; round < 2; round++ {
		for i, body := range bodies {
			resp, data := postPlan(t, reps[0].ts.URL, body)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("round %d request %d: status %d, want 422: %s", round, i, resp.StatusCode, data)
			}
			var eb errorBody
			if err := json.Unmarshal(data, &eb); err != nil || eb.Error != wantErr.Error() {
				t.Errorf("round %d request %d: error body %s, want %q", round, i, data, wantErr)
			}
		}
	}
	st := reps[0].client.Stats()
	if st.Declines != int64(2*n) || st.FillFailures != 0 || st.BreakerSkips != 0 {
		t.Errorf("client stats = %d declines, %d failures, %d breaker skips; want %d, 0, 0",
			st.Declines, st.FillFailures, st.BreakerSkips, 2*n)
	}
	for _, b := range st.Breakers {
		if b.State != cluster.BreakerClosed.String() {
			t.Errorf("breaker for %s is %s after unplannable requests, want closed", b.Peer, b.State)
		}
	}
	for i, r := range reps {
		if st := r.svc.Stats(); st.Searches != 0 || st.Cache.Entries != 0 {
			t.Errorf("replica %d: %d searches, %d cache entries; want none", i, st.Searches, st.Cache.Entries)
		}
	}

	// A plannable key owned by replica 1 still peer-fills afterwards.
	resp, data := postPlan(t, reps[0].ts.URL, ownedBody(t, ring, reps[1].member))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Plancache") != "peer" {
		t.Errorf("plannable request: status %d, X-Plancache %q, want 200 peer: %s",
			resp.StatusCode, resp.Header.Get("X-Plancache"), data)
	}
}

// TestClusterPeerFillServesOwnerBytes drives the happy path end to end:
// the owner replica searches once, the non-owner serves the same bytes
// with X-Plancache: peer, and its next request is a plain local hit.
func TestClusterPeerFillServesOwnerBytes(t *testing.T) {
	reps := newTestFleet(t, 2, nil)
	body := ownedBody(t, reps[0].client.Ring(), reps[1].member)

	ownerResp, ownerData := postPlan(t, reps[1].ts.URL, body)
	if ownerResp.StatusCode != http.StatusOK {
		t.Fatalf("owner: status %d: %s", ownerResp.StatusCode, ownerData)
	}
	peerResp, peerData := postPlan(t, reps[0].ts.URL, body)
	if peerResp.StatusCode != http.StatusOK {
		t.Fatalf("peer: status %d: %s", peerResp.StatusCode, peerData)
	}
	if got := peerResp.Header.Get("X-Plancache"); got != "peer" {
		t.Errorf("X-Plancache = %q, want peer", got)
	}
	if !bytes.Equal(ownerData, peerData) {
		t.Errorf("peer-filled body differs from the owner's")
	}
	again, againData := postPlan(t, reps[0].ts.URL, body)
	if got := again.Header.Get("X-Plancache"); got != "hit" {
		t.Errorf("second request X-Plancache = %q, want hit (fill admitted locally)", got)
	}
	if !bytes.Equal(againData, ownerData) {
		t.Errorf("local hit after fill differs from the owner's bytes")
	}
	if st := reps[0].svc.Stats(); st.Searches != 0 || st.PeerHits != 1 {
		t.Errorf("non-owner stats = %d searches, %d peer hits; want 0, 1", st.Searches, st.PeerHits)
	}
}

// TestClusterTraceJoinsPeerHop sends a request with an explicit trace
// ID to a non-owner replica and asserts the owner's flight recorder
// logged the peer hop under the same trace — one trace ID spanning the
// cross-replica miss.
func TestClusterTraceJoinsPeerHop(t *testing.T) {
	recorder := obs.NewRecorder(16)
	reps := newTestFleet(t, 2, recorder) // recorder attaches to replica 0
	body := ownedBody(t, reps[0].client.Ring(), reps[0].member)

	const traceID = "trace-peer-hop-test-1"
	req, err := http.NewRequest(http.MethodPost, reps[1].ts.URL+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Plancache"); got != "peer" {
		t.Fatalf("X-Plancache = %q, want peer (key chosen to be owned by the other replica)", got)
	}

	found := false
	for _, rec := range recorder.Records() {
		if rec.TraceID == traceID && rec.Route == cluster.PeerPlanPath {
			found = true
		}
	}
	if !found {
		t.Errorf("owner flight recorder has no %s record under trace %q", cluster.PeerPlanPath, traceID)
	}
}

// TestPeerPlanRejectsExcessHops is the forwarding-loop guard: a peer
// request claiming more hops than cluster.MaxHops is refused outright.
func TestPeerPlanRejectsExcessHops(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, err := http.NewRequest(http.MethodPost, ts.URL+cluster.PeerPlanPath, bytes.NewReader(planBody("rect", 8)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.HopHeader, "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusLoopDetected {
		t.Errorf("hop 2 got status %d, want %d", resp.StatusCode, http.StatusLoopDetected)
	}
}

// TestQuotaRetryAfterRounding pins the Retry-After rounding on quota
// sheds: a sub-second wait must render at least 1 (0 tells the client to
// retry immediately into the same empty bucket), and a whole-second wait
// must round up without gaining a spare second.
func TestQuotaRetryAfterRounding(t *testing.T) {
	cases := []struct {
		name string
		rate float64
		want string
	}{
		// rate 2/s, burst 1: the over-quota wait is ~0.5s → ceil to 1.
		{"sub-second wait rounds up to 1", 2, "1"},
		// rate 0.25/s, burst 1: the wait is ~4s → exactly 4, not 5.
		{"whole-second wait keeps its ceiling", 0.25, "4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			quotas := cluster.NewQuotas(tc.rate, 1)
			_, ts := newTestServer(t, Config{Quotas: quotas})
			body := planBody("rect", 16)
			var shed *http.Response
			for i := 0; i < 2; i++ {
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("X-Tenant", "burst")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				shed = resp
			}
			if shed.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("second request: status %d, want 429", shed.StatusCode)
			}
			if ra := shed.Header.Get("Retry-After"); ra != tc.want {
				t.Errorf("Retry-After = %q, want %q", ra, tc.want)
			}
		})
	}
}

// TestQuotaShedsOneTenantOnly exhausts one tenant's token bucket and
// asserts it sheds with 429 + Retry-After while another tenant — and
// the anonymous bucket — keep planning.
func TestQuotaShedsOneTenantOnly(t *testing.T) {
	// Effectively no refill within the test: 2-token bursts only.
	quotas := cluster.NewQuotas(0.0001, 2)
	_, ts := newTestServer(t, Config{Quotas: quotas})
	body := planBody("rect", 16)

	post := func(tenant string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	for i := 0; i < 2; i++ {
		if resp := post("noisy"); resp.StatusCode != http.StatusOK {
			t.Fatalf("noisy request %d within burst: status %d", i, resp.StatusCode)
		}
	}
	shed := post("noisy")
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("noisy over burst: status %d, want 429", shed.StatusCode)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	if resp := post("quiet"); resp.StatusCode != http.StatusOK {
		t.Errorf("quiet tenant shed alongside noisy: status %d", resp.StatusCode)
	}
	if resp := post(""); resp.StatusCode != http.StatusOK {
		t.Errorf("anonymous tenant shed alongside noisy: status %d", resp.StatusCode)
	}
	if st := quotas.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
}

// TestHotTierServesHotStatus drives one key until the periodic rebuild
// pins it, then asserts it is served with X-Plancache: hot.
func TestHotTierServesHotStatus(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{HotKeys: 4, HotRebuildEvery: 1})
	_, ts := newTestServer(t, Config{Service: svc})
	body := planBody("rect", 16)

	var statuses []string
	var last string
	var first []byte
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := postPlan(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		if first == nil {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Fatalf("hot-tier response bytes differ from the original miss")
		}
		last = resp.Header.Get("X-Plancache")
		statuses = append(statuses, last)
		if last == "hot" {
			break
		}
	}
	if last != "hot" {
		t.Fatalf("never served hot (statuses %v)", statuses)
	}
	st := svc.Stats()
	if st.HotHits == 0 || st.Hot == nil || st.Hot.Entries == 0 {
		t.Errorf("stats after hot serve = %+v", st)
	}
}
