package looppart

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"looppart/internal/paperex"
	"looppart/internal/partition"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden strategy outputs")

// goldenStrategies are the legacy search strategies pinned byte-for-byte
// across the Strategy-plugin refactor. Auto rides along because it
// delegates to comm-free and rect and must keep resolving identically.
var goldenStrategies = []Strategy{Auto, Rect, Skewed, CommFree}

var goldenProcs = []int{4, 16}

// goldenParams bind the symbolic examples. Small extents keep the full
// example × strategy × procs × pool-size sweep fast; determinism pinning
// does not need large iteration spaces.
var goldenParams = map[string]int64{"N": 24, "T": 2}

// goldenPoolSizes are the forced search-worker pool sizes every plan must
// agree across (0 = GOMAXPROCS).
var goldenPoolSizes = []int{1, 4, 0}

const goldenFile = "testdata/golden_strategies.txt"

// goldenBaselines are the Figure 3 baselines and the plug-in families,
// pinned in their own file over the same example × procs combos. They
// stay out of goldenFile, whose records perfbench's reference check
// reads.
var goldenBaselines = []Strategy{Rows, Columns, Blocks, AbrahamHudak, LowerBound, Oblivious}

const goldenBaselinesFile = "testdata/golden_baselines.txt"

// goldenSkip reports combinations excluded from the sweep: the
// exhaustive skew enumeration on 3-D parallel nests takes minutes per
// combo (maxSkew 3 over 3×3 unimodular candidates), far too slow for a
// unit test. Skewed stays pinned on every 2-D nest.
func goldenSkip(name string, strategy Strategy) bool {
	if strategy != Skewed {
		return false
	}
	prog, err := Parse(paperex.All[name], goldenParams)
	if err != nil {
		return false
	}
	return len(prog.Nest.DoallLoops()) > 2
}

// goldenCombos renders one deterministic record per (example, strategy,
// procs): the plan's rendering (or the exact error text) plus the
// canonical service JSON served for the same request. The fresh Service
// per call keeps every record a true cache miss.
func goldenCombos(t *testing.T, strategies []Strategy) string {
	t.Helper()
	names := make([]string, 0, len(paperex.All))
	for name := range paperex.All {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		for _, strategy := range strategies {
			if goldenSkip(name, strategy) {
				continue
			}
			for _, procs := range goldenProcs {
				fmt.Fprintf(&b, "=== %s strategy=%s procs=%d ===\n", name, strategy, procs)
				prog, err := Parse(paperex.All[name], goldenParams)
				if err != nil {
					fmt.Fprintf(&b, "parse error: %v\n", err)
					continue
				}
				plan, err := prog.Partition(context.Background(), procs, strategy)
				if err != nil {
					fmt.Fprintf(&b, "error: %v\n", err)
				} else {
					fmt.Fprintf(&b, "plan: %s\n", plan)
				}
				svc := NewService(ServiceOptions{})
				resp, err := svc.Plan(context.Background(), PlanRequest{
					Source:   paperex.All[name],
					Params:   goldenParams,
					Procs:    procs,
					Strategy: strategy.String(),
				})
				if err != nil {
					fmt.Fprintf(&b, "service error: %v\n", err)
				} else {
					fmt.Fprintf(&b, "key: %s\njson: %s\n", resp.Key, resp.Raw)
				}
			}
		}
	}
	return b.String()
}

// TestGoldenStrategyByteIdentity pins every seed nest's plan rendering,
// cache key, and canonical service JSON for the legacy strategies
// (goldenFile) and the baselines (goldenBaselinesFile). The golden files
// were generated before the refactors they guard; regenerate with
// `go test -run TestGoldenStrategyByteIdentity -update` only for a
// deliberate output change.
func TestGoldenStrategyByteIdentity(t *testing.T) {
	for _, g := range []struct {
		file       string
		strategies []Strategy
	}{
		{goldenFile, goldenStrategies},
		{goldenBaselinesFile, goldenBaselines},
	} {
		checkGolden(t, g.file, goldenCombos(t, g.strategies))
	}
}

// checkGolden compares got against the golden file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", file, len(got))
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		diffLine := 0
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				diffLine = i
				break
			}
		}
		t.Fatalf("%s: strategy output diverged from golden at line %d:\n got: %q\nwant: %q",
			file, diffLine+1, line(gl, diffLine), line(wl, diffLine))
	}
}

func line(ls []string, i int) string {
	if i < len(ls) {
		return ls[i]
	}
	return "<eof>"
}

// TestGoldenStrategyPoolSizeInvariance re-runs every golden combination
// at forced worker-pool sizes 1, 4, and GOMAXPROCS: the plan rendering
// must be identical at every size (the engine's deterministic fold).
func TestGoldenStrategyPoolSizeInvariance(t *testing.T) {
	names := make([]string, 0, len(paperex.All))
	for name := range paperex.All {
		names = append(names, name)
	}
	sort.Strings(names)

	type combo struct {
		name     string
		strategy Strategy
		procs    int
	}
	render := func(c combo) string {
		prog, err := Parse(paperex.All[c.name], goldenParams)
		if err != nil {
			return "parse error: " + err.Error()
		}
		plan, err := prog.Partition(context.Background(), c.procs, c.strategy)
		if err != nil {
			return "error: " + err.Error()
		}
		return plan.String()
	}

	for _, name := range names {
		for _, strategy := range goldenStrategies {
			if goldenSkip(name, strategy) {
				continue
			}
			for _, procs := range goldenProcs {
				c := combo{name, strategy, procs}
				var base string
				for i, pool := range goldenPoolSizes {
					prev := partition.SetSearchWorkers(pool)
					out := render(c)
					partition.SetSearchWorkers(prev)
					if i == 0 {
						base = out
						continue
					}
					if out != base {
						t.Fatalf("%s %s procs=%d: pool size %d diverged:\n got: %q\nwant: %q",
							name, strategy, procs, pool, out, base)
					}
				}
			}
		}
	}
}
