package main

import (
	"fmt"
	"sort"
	"time"
)

// setups is how many times a run boots and warms a daemon; setup_s is the
// median. The last daemon serves the timed phase.
const setups = 5

// windows is how many equal windows the timed phase is cut into. The
// rate, median-latency and CPU metrics are medians over the windows, so
// that a burst of contention from outside the benchmark moves one window,
// not the result. The p99 is taken over the whole phase, which keeps well
// over ten samples beyond it.
const windows = 10

// window is one slice of the timed phase.
type window struct {
	lat []time.Duration // requests completed in the window
	ok  int
	cpu time.Duration // daemon CPU time spent in the window
}

// runEndToEnd measures the workload against the real daemon.
func runEndToEnd(env *runEnv, w *workload) (*result, error) {
	chk := newChecker(env.ref)
	var setupTimes []float64
	var d *daemon
	for k := 0; k < setups; k++ {
		dd, boot, err := startDaemon(env.daemonBin, env.workDir, w.flags)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		hs := httpSender(dd.base)
		for _, r := range w.warm {
			serve(hs, chk, env.bodies, r)
		}
		setupTimes = append(setupTimes, (boot + time.Since(t0)).Seconds())
		if k == setups-1 {
			d = dd
		} else if err := dd.stop(); err != nil {
			return nil, err
		}
	}
	warmAttempts := chk.attempts()

	c0, err := d.counters()
	if err != nil {
		d.stop()
		return nil, err
	}
	// Sample the daemon's CPU time at every window boundary.
	span := time.Duration(env.seconds) * time.Second
	width := span / windows
	start := time.Now()
	cpuAt := make([]time.Duration, windows+1)
	cpuErr := make(chan error, 1)
	go func() {
		var err error
		for k := range cpuAt {
			time.Sleep(time.Until(start.Add(time.Duration(k) * width)))
			if cpuAt[k], err = d.cpu(); err != nil {
				break
			}
		}
		cpuErr <- err
	}()
	hs := httpSender(d.base)
	st := closedLoop(w.capacity, start.Add(span), func(i int) (string, bool) {
		return serve(hs, chk, env.bodies, w.stream(i))
	})
	err = <-cpuErr
	rss, err2 := d.peakRSS()
	c1, err3 := d.counters()
	err4 := d.stop()
	for _, e := range []error{err, err2, err3, err4} {
		if e != nil {
			return nil, e
		}
	}

	// Cut the timed phase into windows by completion time; requests still
	// in flight at the deadline belong to none.
	win := make([]window, windows)
	for i, end := range st.ends {
		k := int(end.Sub(start) / width)
		if k >= windows {
			continue
		}
		win[k].lat = append(win[k].lat, st.lat[i])
		if st.ok[i] {
			win[k].ok++
		}
	}
	var rate, p50, cpu []float64
	for k := range win {
		win[k].cpu = cpuAt[k+1] - cpuAt[k]
		n := len(win[k].lat)
		if n == 0 {
			continue
		}
		rate = append(rate, float64(win[k].ok)/width.Seconds())
		p50 = append(p50, us(quantile(win[k].lat, 0.5)))
		cpu = append(cpu, us(win[k].cpu)/float64(n))
	}
	if len(rate) == 0 {
		return nil, fmt.Errorf("no request completed within the timed phase")
	}
	p99 := quantile(st.lat, 0.99)
	beyond := 0
	for _, l := range st.lat {
		if l > p99 {
			beyond++
		}
	}
	m := map[string]metric{
		"throughput_rps":        {median(rate), "req/s"},
		"latency_p50_us":        {median(p50), "us"},
		"latency_p99_us":        {us(p99), "us"},
		"server_cpu_us_per_req": {median(cpu), "us"},
		"server_rss_peak_mb":    {rss, "MiB"},
		"setup_s":               {median(setupTimes), "s"},
	}

	minWin := len(st.lat)
	for _, wi := range win {
		minWin = min(minWin, len(wi.lat))
	}
	each := fmt.Sprintf("median of %d windows of %.1f s", windows, width.Seconds())
	fmt.Printf("%-24s %14s %-6s %s\n", "metric", "value", "unit", "samples")
	row := func(name string, v float64, unit, samples string) {
		fmt.Printf("%-24s %14.4f %-6s %s\n", name, v, unit, samples)
	}
	row("throughput_rps", m["throughput_rps"].Value, "req/s", fmt.Sprintf("%s; %d requests in %.2f s", each, len(st.lat), st.elapsed.Seconds()))
	row("latency_p50_us", m["latency_p50_us"].Value, "us", fmt.Sprintf("%s; ≥%d requests per window", each, minWin))
	row("latency_p99_us", m["latency_p99_us"].Value, "us", fmt.Sprintf("%d requests, %d beyond p99", len(st.lat), beyond))
	row("fail_ratio", float64(chk.failed())/float64(chk.attempts()), "ratio",
		fmt.Sprintf("%d failed / %d attempted (%d set-up, %d timed)", chk.failed(), chk.attempts(), warmAttempts, st.attempted))
	row("server_cpu_us_per_req", m["server_cpu_us_per_req"].Value, "us", fmt.Sprintf("%s; %.2f s CPU in all", each, (cpuAt[windows]-cpuAt[0]).Seconds()))
	row("server_rss_peak_mb", rss, "MiB", "VmHWM of the timed daemon")
	row("setup_s", m["setup_s"].Value, "s", fmt.Sprintf("median of %d boots+warm-ups %v", setups, roundAll(setupTimes)))
	fmt.Printf("%-24s %s\n", "  per window", fmtWindows(rate, p50, cpu))
	if w.commPrefix > 0 {
		row("plan_comm_words", float64(commWords(w, chk)), "words", fmt.Sprintf("sum over the first %d cert plans of the stream", w.commPrefix))
	} else {
		fmt.Printf("%-24s %14s %-6s %s\n", "plan_comm_words", "n/a", "words", "certify only")
	}
	if len(st.lat) < minCompleted {
		fmt.Printf("warning: %d timed requests, fewer than %d: the p99 has fewer than ten samples beyond it\n", len(st.lat), minCompleted)
	}
	if w.capacity > 0 && st.attempted >= w.capacity {
		fmt.Printf("note: the timed phase used all %d distinct requests before %d s\n", w.capacity, env.seconds)
	}

	// Outside-in: the daemon's own counters against what the client saw.
	n := float64(st.attempted)
	dReq := c1.Requests - c0.Requests
	fmt.Printf("daemon counters over the timed phase (base: %.0f service requests):\n", dReq)
	for _, c := range []struct {
		name string
		v    float64
	}{{"searches", c1.Searches - c0.Searches}, {"cache hits", c1.CacheHits - c0.CacheHits},
		{"hot hits", c1.HotHits - c0.HotHits}, {"evictions", c1.Evictions - c0.Evictions}, {"shed", c1.Shed - c0.Shed}} {
		fmt.Printf("  %-12s %8.0f  ratio %.4f\n", c.name, c.v, ratio(c.v, dReq))
	}
	fmt.Printf("client X-Plancache statuses (base: %d timed requests):", st.attempted)
	for _, k := range sortedKeys(st.status) {
		fmt.Printf(" %s=%d (%.4f)", k, st.status[k], float64(st.status[k])/n)
	}
	fmt.Println()
	if chk.sample != "" {
		fmt.Printf("first failure: %s\nfailures by reason: %v\n", chk.sample, chk.fails)
	}
	return &result{Correct: chk.failed() == 0, Attempted: chk.attempts(), Failed: chk.failed(), Metrics: m}, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// fmtWindows lists the per-window values behind the medians.
func fmtWindows(rate, p50, cpu []float64) string {
	var b []byte
	for k := range rate {
		b = fmt.Appendf(b, "[%.0f req/s p50 %.0f cpu %.0f] ", rate[k], p50[k], cpu[k])
	}
	return string(b)
}
