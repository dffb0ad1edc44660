package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat counts CPU time in
// these units (100 Hz on every Linux configuration Go supports).
const clockTick = 10 * time.Millisecond

// daemon is one looppartd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	log  *os.File
}

// startDaemon execs looppartd on a loopback port and waits until
// /healthz answers. It returns the daemon and the time from exec to the
// first healthy answer.
func startDaemon(bin, workDir string, flags []string) (*daemon, time.Duration, error) {
	portfile := filepath.Join(workDir, "looppartd.port")
	_ = os.Remove(portfile) // a stale file would hand us a dead address
	logf, err := os.Create(filepath.Join(workDir, "looppartd.log"))
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-portfile", portfile, "-reqlog", ""}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start looppartd: %w", err)
	}
	d := &daemon{cmd: cmd, log: logf}
	hc := &http.Client{Timeout: time.Second}
	for deadline := start.Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if d.base == "" {
			b, err := os.ReadFile(portfile)
			if err != nil || len(b) == 0 {
				continue
			}
			d.base = "http://" + strings.TrimSpace(string(b))
		}
		resp, err := hc.Get(d.base + "/healthz")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return d, time.Since(start), nil
		}
	}
	d.stop()
	return nil, 0, fmt.Errorf("looppartd did not become healthy within 30s (log %s)", logf.Name())
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes longer than 10s.
func (d *daemon) stop() error {
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine: Wait reports it
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("looppartd did not drain within 10s; killed")
	}
}

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after the
	// closing parenthesis are fixed. utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", s)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS returns the daemon's resident-set high-water mark in MiB.
func (d *daemon) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// counters is the daemon's own view of its caches, read from
// /debug/cache and /metrics.
type counters struct {
	Requests, Searches, CacheHits, HotHits, Evictions, Shed float64
}

func (d *daemon) counters() (counters, error) {
	var dc struct {
		Service struct {
			Requests  float64 `json:"requests"`
			Searches  float64 `json:"searches"`
			CacheHits float64 `json:"cache_hits"`
			HotHits   float64 `json:"hot_hits"`
			Cache     struct {
				Evictions float64 `json:"evictions"`
			} `json:"cache"`
		} `json:"service"`
	}
	if err := d.getJSON("/debug/cache", &dc); err != nil {
		return counters{}, err
	}
	c := counters{
		Requests: dc.Service.Requests, Searches: dc.Service.Searches, CacheHits: dc.Service.CacheHits,
		HotHits: dc.Service.HotHits, Evictions: dc.Service.Cache.Evictions,
	}
	text, err := d.get("/metrics")
	if err != nil {
		return counters{}, err
	}
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, "server_shed_total "); ok {
			c.Shed, _ = strconv.ParseFloat(v, 64) // a malformed value reads as 0 sheds
		}
	}
	return c, nil
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, err
}

func (d *daemon) getJSON(path string, v any) error {
	b, err := d.get(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
