package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"looppart"
	"looppart/internal/autotune"
	"looppart/internal/tile"
)

// Planning budget for universe items: an item whose plan (or, for cert
// items, plan plus self-check; for tune items, tournament) takes longer
// on the machine that made the reference, or whose iteration space is
// larger, is excluded. A few requests of ~60 ms would otherwise set the
// pace of whole measurement windows and make runs unsteady.
const (
	maxVolume    = 1 << 18
	itemBudget   = 20 * time.Millisecond
	tuneBudget   = 40 * time.Millisecond
	maxSkewDepth = 2 // the skewed search takes minutes on 3-D parallel nests
)

// hitRepeats is how often regenReference repeats a served request to time
// its cache hit (the fastest repeat counts).
const hitRepeats = 3

// hitCost times the item's repeat request, which the cache answers, plus
// the verification a certify request pays on every answer.
func hitCost(svc *looppart.Service, req looppart.PlanRequest, verify bool) time.Duration {
	best := time.Duration(1 << 62)
	for k := 0; k < hitRepeats; k++ {
		t0 := time.Now()
		resp, err := svc.Plan(context.Background(), req)
		if err == nil && verify {
			svc.Verify(req, resp.Result)
		}
		best = min(best, time.Since(t0))
	}
	return best
}

// daemonFingerprint is the cost model looppartd runs with by default
// (-calibrate model); tournament bodies embed it.
func daemonFingerprint() autotune.Fingerprint { return autotune.ModelFingerprint() }

// regenReference plans every universe item in-process exactly as the
// daemon would serve it and writes the digest file. The plan section runs
// through a default Service, cert through a -commsets Service (with the
// self-check and the lower-bound sandwich required to pass), tune through
// Service.Tournament. It prints per-section cost quantiles.
func regenReference(path string) error {
	u := buildUniverse()
	lines := make([]string, len(u.items))
	plain := looppart.NewService(looppart.ServiceOptions{Fingerprint: daemonFingerprint()})
	cert := looppart.NewService(looppart.ServiceOptions{Fingerprint: daemonFingerprint(), CommSets: true})
	seen := map[string]bool{}
	costs := map[section][]time.Duration{}
	excluded := map[string]int{}
	exclude := func(why string) { excluded[why]++ }
	ctx := context.Background()

	for i, it := range u.items {
		prog, err := looppart.Parse(it.req.Source, it.req.Params)
		if err != nil {
			exclude("parse")
			continue
		}
		if tile.BoundsOf(prog.Nest).Size() > maxVolume {
			exclude("volume")
			continue
		}
		if it.req.Strategy == "skewed" && len(prog.Nest.DoallLoops()) > maxSkewDepth {
			exclude("skew-depth")
			continue
		}
		strategy, _ := looppart.ParseStrategy(it.req.Strategy)
		key := looppart.CanonicalKey(prog, it.req.Procs, strategy)
		if seen[key] {
			exclude("duplicate-key")
			continue
		}
		start := time.Now()
		var body []byte
		var d, hit time.Duration
		budget := itemBudget
		switch it.sec {
		case secPlan:
			resp, err := plain.Plan(ctx, it.req)
			if err != nil {
				exclude("plan-error")
				continue
			}
			body = resp.Raw
			d = time.Since(start)
			hit = hitCost(plain, it.req, false)
		case secCert:
			resp, err := cert.Plan(ctx, it.req)
			if err != nil {
				exclude("plan-error")
				continue
			}
			res := resp.Result
			if res.Comm == nil || res.CommLowerBound == nil || *res.CommLowerBound > res.Comm.Words {
				exclude("not-certifiable")
				continue
			}
			if rep := cert.Verify(it.req, res); !rep.OK() {
				exclude("verify-failed")
				continue
			}
			body = resp.Raw
			d = time.Since(start)
			hit = hitCost(cert, it.req, true)
		case secTune:
			res, err := cert.Tournament(it.req)
			if err != nil {
				exclude("tournament-error")
				continue
			}
			if body, err = json.Marshal(res); err != nil {
				return err
			}
			d = time.Since(start)
			hit = d // a tournament reruns on every request
			budget = tuneBudget
		}
		if d > budget {
			exclude("over-budget")
			continue
		}
		seen[key] = true
		costs[it.sec] = append(costs[it.sec], d)
		lines[i] = fmt.Sprintf("%s %.0f %.1f", bodyDigest(body), us(d), us(hit))
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, refHeader(u))
	fmt.Fprintln(w, "# one line per universe item: first 48 bits of the SHA-256 of the served body, first-request µs, repeat-request µs; \"-\" = excluded")
	for _, l := range lines {
		if l == "" {
			l = "-"
		}
		fmt.Fprintln(w, l)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for sec := secPlan; sec <= secTune; sec++ {
		c := costs[sec]
		sort.Slice(c, func(a, b int) bool { return c[a] < c[b] })
		var sum time.Duration
		for _, d := range c {
			sum += d
		}
		if len(c) == 0 {
			continue
		}
		fmt.Printf("%s: %d valid, mean %v p50 %v p90 %v p99 %v max %v\n", sec, len(c),
			sum/time.Duration(len(c)), c[len(c)/2], c[len(c)*9/10], c[len(c)*99/100], c[len(c)-1])
	}
	fmt.Printf("excluded: %v\n", excluded)
	return nil
}
