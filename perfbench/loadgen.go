package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// workers is the closed loop's client count: compile drivers wait for
// each plan before asking for the next, and the benchmark host has two
// cores.
const workers = 2

// response is what a sender got back for one request.
type response struct {
	code  int
	cache string // X-Plancache
	body  []byte
}

// sender delivers one request: over loopback HTTP to the daemon, or
// straight into an in-process server.Handler.
type sender func(r request, body []byte) (response, error)

func httpSender(base string) sender {
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: workers, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
	return func(r request, body []byte) (response, error) {
		resp, err := client.Post(base+r.route, "application/json", bytes.NewReader(body))
		if err != nil {
			return response{}, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return response{resp.StatusCode, resp.Header.Get("X-Plancache"), b}, err
	}
}

func handlerSender(h http.Handler) sender {
	return func(r request, body []byte) (response, error) {
		req := httptest.NewRequest(http.MethodPost, r.route, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return response{rec.Code, rec.Header().Get("X-Plancache"), rec.Body.Bytes()}, nil
	}
}

// checker validates every response of a run: (a) all bodies for one item
// are byte-identical within the run, (b) each body matches the shipped
// reference digest, (c) certify's ?verify=1 report passes and the
// communication lower bound does not exceed the exact word count.
type checker struct {
	ref    *reference
	mu     sync.Mutex
	n      int            // responses checked
	first  map[int]string // item → digest of its first body this run
	fails  map[string]int // reason → count
	words  map[int]int64  // cert item → comm.words served
	sample string         // first failure, for the log
}

func newChecker(ref *reference) *checker {
	return &checker{ref: ref, first: map[int]string{}, fails: map[string]int{}, words: map[int]int64{}}
}

// check returns whether the response is correct, recording why not.
func (c *checker) check(r request, resp response, err error) bool {
	reason, detail := c.verdict(r, resp, err)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if reason == "" {
		return true
	}
	c.fails[reason]++
	if c.sample == "" {
		c.sample = fmt.Sprintf("item %d %s: %s: %s", r.idx, r.route, reason, detail)
	}
	return false
}

func (c *checker) verdict(r request, resp response, err error) (reason, detail string) {
	switch {
	case err != nil:
		return "transport", err.Error()
	case resp.code == http.StatusTooManyRequests:
		return "shed", string(resp.body)
	case resp.code != http.StatusOK:
		return fmt.Sprintf("status-%d", resp.code), string(resp.body)
	}
	payload := bytes.TrimRight(resp.body, "\n")
	if r.route == routeCertify {
		var env struct {
			Result json.RawMessage `json:"result"`
			Verify struct {
				Checks   []json.RawMessage `json:"checks"`
				Failures int               `json:"failures"`
			} `json:"verify"`
		}
		if err := json.Unmarshal(payload, &env); err != nil {
			return "bad-envelope", err.Error()
		}
		if env.Verify.Failures != 0 || len(env.Verify.Checks) == 0 {
			return "verify-failed", string(payload)
		}
		var res struct {
			Comm *struct {
				Words int64 `json:"words"`
			} `json:"comm"`
			CommLowerBound *int64 `json:"comm_lower_bound"`
		}
		if err := json.Unmarshal(env.Result, &res); err != nil {
			return "bad-result", err.Error()
		}
		if res.Comm == nil || res.CommLowerBound == nil {
			return "no-comm-certificate", string(env.Result)
		}
		if *res.CommLowerBound > res.Comm.Words {
			return "sandwich-violated", string(env.Result)
		}
		c.mu.Lock()
		c.words[r.idx] = res.Comm.Words
		c.mu.Unlock()
		payload = env.Result
	}
	got := bodyDigest(payload)
	c.mu.Lock()
	first, seen := c.first[r.idx]
	if !seen {
		c.first[r.idx] = got
	}
	c.mu.Unlock()
	if seen && got != first {
		return "not-byte-identical", string(payload)
	}
	if want := c.ref.want[r.idx]; got != want {
		return "reference-mismatch", fmt.Sprintf("digest %s, reference %s: %s", got, want, payload)
	}
	return "", ""
}

func (c *checker) attempts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *checker) failed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.fails {
		n += k
	}
	return n
}

// loopStats is one closed-loop phase's client-side record.
type loopStats struct {
	attempted int
	lat       []time.Duration // every request, failed ones included
	ends      []time.Time     // when each request completed
	ok        []bool          // whether each answer was correct
	status    map[string]int  // X-Plancache value (or "shed", "error")
	elapsed   time.Duration
}

// closedLoop runs workers clients, each sending its next request only
// after the previous answer, over stream indices 0, 1, 2, ... until limit
// requests were issued (limit > 0) or the deadline passed. op performs
// request i and reports its status and correctness.
func closedLoop(limit int, deadline time.Time, op func(i int) (status string, ok bool)) loopStats {
	var next atomic.Int64
	type local struct {
		lat    []time.Duration
		ends   []time.Time
		ok     []bool
		status map[string]int
	}
	locals := make([]local, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range locals {
		wg.Add(1)
		go func(l *local) {
			defer wg.Done()
			l.status = map[string]int{}
			for {
				i := int(next.Add(1) - 1)
				if (limit > 0 && i >= limit) || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				t0 := time.Now()
				st, ok := op(i)
				end := time.Now()
				l.lat = append(l.lat, end.Sub(t0))
				l.ends = append(l.ends, end)
				l.ok = append(l.ok, ok)
				l.status[st]++
			}
		}(&locals[w])
	}
	wg.Wait()
	out := loopStats{status: map[string]int{}, elapsed: time.Since(start)}
	for _, l := range locals {
		out.lat = append(out.lat, l.lat...)
		out.ends = append(out.ends, l.ends...)
		out.ok = append(out.ok, l.ok...)
		for k, v := range l.status {
			out.status[k] += v
		}
	}
	out.attempted = len(out.lat)
	return out
}

// serve sends r through s and checks the answer, returning the cache
// status for the statistics.
func serve(s sender, c *checker, bodies map[int][]byte, r request) (string, bool) {
	resp, err := s(r, bodies[r.idx])
	ok := c.check(r, resp, err)
	switch {
	case err != nil:
		return "error", ok
	case resp.code == http.StatusTooManyRequests:
		return "shed", ok
	case resp.cache == "":
		return "none", ok // autotune answers carry no cache status
	}
	return resp.cache, ok
}

// quantile returns the q-quantile of d (nearest rank), sorting d.
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
	k := int(q*float64(len(d))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(d) {
		k = len(d) - 1
	}
	return d[k]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
