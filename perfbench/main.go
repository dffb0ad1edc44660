// Command perfbench is looppart's end-to-end benchmark. It starts the
// looppartd daemon, drives it over loopback HTTP with a closed loop of two
// clients replaying one of four seeded workloads, checks every response
// against the shipped reference digests, and prints the end-to-end
// metrics (-trace 0) or the per-layer metrics of an in-process traced
// replay of the same requests (-trace 1). The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// It is normally run through run.py, which builds the daemon and this
// program first:
//
//	python3 perfbench/run.py --workload hot_hits --seed 1 --seconds 10 --trace 0
//
// -regen-reference rebuilds testdata/reference.txt from the current
// planner (only when a change is meant to alter served plan bytes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"looppart/internal/telemetry"
)

// runEnv is what every phase of a run shares.
type runEnv struct {
	u         *universe
	ref       *reference
	seed      int64
	seconds   int
	daemonBin string
	workDir   string
	bodies    map[int][]byte
}

// minCompleted is the fewest timed requests that put at least ten samples
// beyond the p99.
const minCompleted = 1000

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "request-stream seed")
		seconds = flag.Int("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics against the daemon; 1: per-layer metrics from the traced replay")
		daemon  = flag.String("daemon", "", "looppartd binary")
		workDir = flag.String("workdir", "", "directory for the daemon's port file and log and the trace file")
		refPath = flag.String("reference", "", "reference digest file (default testdata/reference.txt in the working directory)")
		regen   = flag.String("regen-reference", "", "rebuild the reference digest file at this path and exit")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *daemon, *workDir, *refPath, *regen); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, daemonBin, workDir, refPath, regen string) error {
	if regen != "" {
		return regenReference(regen)
	}
	if refPath == "" {
		refPath = filepath.Join("testdata", "reference.txt")
	}
	u := buildUniverse()
	ref, err := loadReference(refPath, u)
	if err != nil {
		return err
	}
	w, err := newWorkload(name, seed, u, ref)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if daemonBin == "" || workDir == "" {
		return fmt.Errorf("-daemon and -workdir are required")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	env := &runEnv{u: u, ref: ref, seed: seed, seconds: seconds, daemonBin: daemonBin, workDir: workDir,
		bodies: map[int][]byte{}}
	for _, idx := range w.domain {
		env.bodies[idx] = u.items[idx].body()
	}
	for _, r := range w.warm {
		env.bodies[r.idx] = u.items[r.idx].body()
	}

	// The traced replay plans in this process: give it the daemon's
	// telemetry set-up (record caps of looppartd's defaults).
	reg := telemetry.New()
	reg.SetRecordCaps(4096, 16384)
	telemetry.SetActive(reg)

	fmt.Printf("workload %s seed %d: %s\n", w.name, seed, w.why)
	fmt.Printf("closed loop, %d workers, daemon flags %q, %d s timed\n", workers, w.flags, seconds)
	var res result
	if trace == 0 {
		r, err := runEndToEnd(env, w)
		if err != nil {
			return err
		}
		res = *r
	} else {
		r, err := runTraced(env, w)
		if err != nil {
			return err
		}
		for _, line := range r.table {
			fmt.Println(line)
		}
		for _, k := range sortedKeys(r.metrics) {
			fmt.Printf("  %-36s %14.4f %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
		}
		res = result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func roundAll(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmt.Sprintf("%.3f", x)
	}
	return out
}
