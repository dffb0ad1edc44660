// Command benchjson turns `go test -bench` output into the checked-in
// BENCH_PARTITION.json performance record: a baseline column (captured
// before an optimization lands), a current column, and the derived
// speedup/allocation ratios. scripts/bench.sh drives it; scripts/verify.sh
// runs it in -validate mode to keep the record well-formed.
//
// Usage:
//
//	benchjson -baseline raw.txt -current raw.txt -out BENCH_PARTITION.json
//	benchjson -validate BENCH_PARTITION.json
//	benchjson -against BENCH_PARTITION.json -current raw.txt
//
// -against is the regression guard: every benchmark present in both the
// fresh run and the recorded report must stay within -threshold percent
// (default 25) of the recorded ns/op, or benchjson exits non-zero.
// scripts/bench.sh runs it before overwriting the record (skip with
// GUARD=0 for deliberately short, noisy runs). -only restricts the guard
// to a comma-separated list of benchmark name prefixes, so a hot path
// can be held to a tighter threshold than the suite at large (bench.sh
// guards the ServePlan fast path at 5%).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Row is one benchmark measurement.
type Row struct {
	NsOp     float64 `json:"ns_op"`
	BytesOp  int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// Entry pairs the baseline and current measurements of one benchmark.
type Entry struct {
	Baseline *Row `json:"baseline,omitempty"`
	Current  *Row `json:"current,omitempty"`
	// Speedup is baseline ns/op over current ns/op (>1 = faster now).
	Speedup float64 `json:"speedup,omitempty"`
	// AllocRatio is current allocs/op over baseline allocs/op (<1 =
	// fewer allocations now).
	AllocRatio float64 `json:"alloc_ratio,omitempty"`
}

// Report is the whole file.
type Report struct {
	Note       string            `json:"note"`
	CPU        string            `json:"cpu,omitempty"`
	Benchmarks map[string]*Entry `json:"benchmarks"`
}

func main() {
	baseline := flag.String("baseline", "", "raw `go test -bench` output captured before the change")
	current := flag.String("current", "", "raw `go test -bench` output for the working tree")
	out := flag.String("out", "", "write the merged JSON report here")
	validate := flag.String("validate", "", "validate an existing report instead of building one")
	against := flag.String("against", "", "guard: fail if -current regresses vs this recorded report")
	threshold := flag.Float64("threshold", 25, "max tolerated ns/op regression for -against, in percent")
	only := flag.String("only", "", "restrict -against to benchmarks matching these comma-separated name prefixes")
	flag.Parse()

	if *against != "" {
		if *current == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -against needs -current")
			os.Exit(2)
		}
		rows, _, err := parseBench(*current)
		if err != nil {
			fatal(err)
		}
		if *only != "" {
			rows = filterRows(rows, strings.Split(*only, ","))
		}
		regressions, err := guardAgainst(*against, rows, *threshold)
		if err != nil {
			fatal(err)
		}
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", r)
		}
		if len(regressions) > 0 {
			os.Exit(1)
		}
		fmt.Printf("benchjson: no >%g%% regressions vs %s\n", *threshold, *against)
		return
	}
	if *validate != "" {
		if err := validateReport(*validate); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchjson: %s OK\n", *validate)
		return
	}
	if *current == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "benchjson: need -current and -out (or -validate)")
		os.Exit(2)
	}

	rep := &Report{
		Note:       "Search, simulator & serving benchmarks (bench_test.go). baseline: search/sim rows before the parallel/pruned search engine and cachesim interning; ServePlanMiss/ServePlanHit before the closed-form fast path and zero-alloc miss pipeline. current: working tree. ServeBatch, ServePlanMissClosedForm, ServePlanMissEnumerated and SkewSearchEnumerated are current-only. Regenerate with scripts/bench.sh.",
		Benchmarks: map[string]*Entry{},
	}
	if *baseline != "" {
		rows, cpu, err := parseBench(*baseline)
		if err != nil {
			fatal(err)
		}
		rep.CPU = cpu
		for name, r := range rows {
			rr := r
			rep.Benchmarks[name] = &Entry{Baseline: &rr}
		}
	}
	rows, cpu, err := parseBench(*current)
	if err != nil {
		fatal(err)
	}
	if rep.CPU == "" {
		rep.CPU = cpu
	}
	for name, r := range rows {
		e := rep.Benchmarks[name]
		if e == nil {
			e = &Entry{}
			rep.Benchmarks[name] = e
		}
		rr := r
		e.Current = &rr
		if e.Baseline != nil && rr.NsOp > 0 {
			e.Speedup = round2(e.Baseline.NsOp / rr.NsOp)
			if e.Baseline.AllocsOp > 0 {
				e.AllocRatio = round2(float64(rr.AllocsOp) / float64(e.Baseline.AllocsOp))
			}
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	var names []string
	for n := range rep.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e := rep.Benchmarks[n]
		if e.Baseline != nil && e.Current != nil {
			fmt.Printf("%-28s %10.0f -> %10.0f ns/op  (%.2fx, allocs %.2fx)\n",
				n, e.Baseline.NsOp, e.Current.NsOp, e.Speedup, e.AllocRatio)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

// parseBench extracts Benchmark lines from `go test -bench -benchmem`
// output. The trailing -N GOMAXPROCS suffix is stripped from names.
func parseBench(path string) (map[string]Row, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	rows := map[string]Row{}
	cpu := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = rest
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var row Row
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				row.NsOp = v
				seen = true
			case "B/op":
				row.BytesOp = int64(v)
			case "allocs/op":
				row.AllocsOp = int64(v)
			}
		}
		if seen {
			rows[name] = row
		}
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	if len(rows) == 0 {
		return nil, "", fmt.Errorf("%s: no benchmark lines found", path)
	}
	return rows, cpu, nil
}

// filterRows keeps the rows whose name starts with one of the prefixes
// (the -only flag). An unmatched prefix surfaces as the guard's
// no-overlap error, not a silent pass.
func filterRows(rows map[string]Row, prefixes []string) map[string]Row {
	out := map[string]Row{}
	for name, r := range rows {
		for _, p := range prefixes {
			if p != "" && strings.HasPrefix(name, strings.TrimSpace(p)) {
				out[name] = r
				break
			}
		}
	}
	return out
}

// guardAgainst compares a fresh run's rows with the recorded report's
// current column and returns one message per benchmark whose ns/op grew
// by more than threshold percent. Benchmarks only on one side are
// ignored (rows come and go as the suite evolves); a fresh run that
// shares no row with the record is an error, not a pass.
func guardAgainst(recordPath string, rows map[string]Row, threshold float64) ([]string, error) {
	buf, err := os.ReadFile(recordPath)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", recordPath, err)
	}
	var regressions []string
	compared := 0
	var names []string
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		e := rep.Benchmarks[name]
		if e == nil || e.Current == nil || e.Current.NsOp <= 0 {
			continue
		}
		compared++
		got := rows[name].NsOp
		limit := e.Current.NsOp * (1 + threshold/100)
		if got > limit {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f ns/op vs recorded %.0f (+%.0f%%, limit +%g%%)",
				name, got, e.Current.NsOp, 100*(got/e.Current.NsOp-1), threshold))
		}
	}
	if compared == 0 {
		return nil, fmt.Errorf("%s: no benchmark overlaps the fresh run", recordPath)
	}
	return regressions, nil
}

// validateReport checks the checked-in record is well-formed: the search
// and simulator benchmarks are present with positive measurements, and
// every derived ratio matches its columns.
func validateReport(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	required := []string{
		"RectSearch/P=16", "RectSearch/P=64", "RectSearch/P=256",
		"SkewSearch/P=16", "SkewSearch/P=64", "SkewSearch/P=256",
		"CachesimReplay",
		// Promoted from current-only when the closed-form fast path and
		// zero-allocation miss pipeline landed: the pre-optimization serve
		// numbers are the recorded baseline.
		"ServePlanMiss", "ServePlanHit",
	}
	for _, name := range required {
		e := rep.Benchmarks[name]
		if e == nil {
			return fmt.Errorf("%s: missing benchmark %q", path, name)
		}
		for col, r := range map[string]*Row{"baseline": e.Baseline, "current": e.Current} {
			if r == nil {
				return fmt.Errorf("%s: %s lacks a %s row", path, name, col)
			}
			if r.NsOp <= 0 || r.AllocsOp < 0 || r.BytesOp < 0 {
				return fmt.Errorf("%s: %s %s row has non-positive measurements: %+v", path, name, col, *r)
			}
		}
		if e.Speedup <= 0 {
			return fmt.Errorf("%s: %s has no speedup ratio", path, name)
		}
		want := e.Baseline.NsOp / e.Current.NsOp
		if e.Speedup < want*0.9 || e.Speedup > want*1.1 {
			return fmt.Errorf("%s: %s speedup %.2f inconsistent with columns (%.2f)", path, name, e.Speedup, want)
		}
	}
	// These rows have no pre-optimization capture, so only a
	// current column is required.
	currentOnly := []string{"ServeBatch", "ServePlanMissClosedForm", "ServePlanMissEnumerated",
		"SkewSearchEnumerated/P=16", "SkewSearchEnumerated/P=64"}
	for _, name := range currentOnly {
		e := rep.Benchmarks[name]
		if e == nil {
			return fmt.Errorf("%s: missing current-only benchmark %q", path, name)
		}
		if e.Current == nil {
			return fmt.Errorf("%s: %s lacks a current row", path, name)
		}
		if e.Current.NsOp <= 0 || e.Current.AllocsOp < 0 || e.Current.BytesOp < 0 {
			return fmt.Errorf("%s: %s current row has non-positive measurements: %+v", path, name, *e.Current)
		}
	}
	return nil
}
