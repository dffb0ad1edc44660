package autotune

import (
	"context"
	"strings"
	"testing"

	"looppart/internal/footprint"
	"looppart/internal/paperex"
	"looppart/internal/partition"
	"looppart/internal/telemetry"
)

func analysisFor(t *testing.T, src string, params map[string]int64) *footprint.Analysis {
	t.Helper()
	n := paperex.MustParse(src, params)
	a, err := footprint.Analyze(n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// The acceptance invariant: the tournament winner's simulated miss count
// is never above the pure-analytic plan's, on every paper nest. Candidate
// 0 IS the analytic plan and ties break toward it, so this holds by
// construction — the test pins the construction.
func TestTournamentWinnerNeverWorseThanAnalytic(t *testing.T) {
	params := map[string]int64{"N": 12, "T": 2}
	for name, src := range paperex.All {
		a := analysisFor(t, src, params)
		res, err := RunTournamentCtx(context.Background(), a, TournamentOptions{Procs: 4, K: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		analytic := res.Candidates[0]
		winner := res.WinnerCandidate()
		if winner.MeasuredMisses > analytic.MeasuredMisses {
			t.Errorf("%s: winner %s has %d misses, analytic %s has %d",
				name, winner.TileDesc, winner.MeasuredMisses,
				analytic.TileDesc, analytic.MeasuredMisses)
		}
	}
}

func TestTournamentCandidateZeroIsArgmin(t *testing.T) {
	a := analysisFor(t, paperex.Example8, map[string]int64{"N": 24})
	argmin, err := partition.OptimizeRect(context.Background(), a, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTournamentCtx(context.Background(), a, TournamentOptions{Procs: 8, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := "rect("
	for i, e := range argmin.Ext {
		if i > 0 {
			want += "x"
		}
		want += itoa(e)
	}
	want += ")"
	if res.Candidates[0].TileDesc != want {
		t.Errorf("candidate 0 = %s, argmin tile = %s", res.Candidates[0].TileDesc, want)
	}
	if res.Candidates[0].PredictedFootprint != argmin.PredictedFootprint {
		t.Errorf("candidate 0 predicted %.1f, argmin %.1f",
			res.Candidates[0].PredictedFootprint, argmin.PredictedFootprint)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestTournamentDeterministic(t *testing.T) {
	a := analysisFor(t, paperex.Example9, map[string]int64{"N": 16})
	var first *Result
	for i := 0; i < 3; i++ {
		res, err := RunTournamentCtx(context.Background(), a, TournamentOptions{Procs: 4, K: 3})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.Winner != first.Winner || len(res.Candidates) != len(first.Candidates) {
			t.Fatalf("run %d: winner %d/%d candidates, first run %d/%d",
				i, res.Winner, len(res.Candidates), first.Winner, len(first.Candidates))
		}
		for j := range res.Candidates {
			if res.Candidates[j].MeasuredMisses != first.Candidates[j].MeasuredMisses {
				t.Errorf("run %d candidate %d: %d misses vs %d",
					i, j, res.Candidates[j].MeasuredMisses, first.Candidates[j].MeasuredMisses)
			}
		}
	}
}

func TestTournamentSkewStrategy(t *testing.T) {
	a := analysisFor(t, paperex.Example3, map[string]int64{"N": 16})
	res, err := RunTournamentCtx(context.Background(), a, TournamentOptions{Procs: 4, Strategy: "skewed", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "skewed" || len(res.Candidates) == 0 {
		t.Fatalf("unexpected result %+v", res)
	}
	argmin, err := partition.OptimizeSkew(context.Background(), a, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates[0].TileDesc != argmin.Tile.String() {
		t.Errorf("candidate 0 = %s, argmin = %s", res.Candidates[0].TileDesc, argmin.Tile.String())
	}
}

func TestTournamentLineGranularity(t *testing.T) {
	a := analysisFor(t, paperex.Example8, map[string]int64{"N": 16})
	fp := ModelFingerprint()
	fp.LineElems = 4
	unit, err := RunTournamentCtx(context.Background(), a, TournamentOptions{Procs: 4, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	lined, err := RunTournamentCtx(context.Background(), a, TournamentOptions{Procs: 4, K: 2, Fingerprint: fp})
	if err != nil {
		t.Fatal(err)
	}
	if lined.Candidates[0].MeasuredMisses >= unit.Candidates[0].MeasuredMisses {
		t.Errorf("4-element lines measured %d misses, unit lines %d — spatial locality lost",
			lined.Candidates[0].MeasuredMisses, unit.Candidates[0].MeasuredMisses)
	}
}

func TestTournamentExecAndReport(t *testing.T) {
	a := analysisFor(t, paperex.Example8, map[string]int64{"N": 8})
	res, err := RunTournamentCtx(context.Background(), a, TournamentOptions{Procs: 2, K: 2, Exec: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Candidates {
		if c.ExecNs <= 0 {
			t.Errorf("candidate %d: ExecNs = %d, want > 0", i, c.ExecNs)
		}
		if c.CommWords < 0 {
			t.Errorf("candidate %d: comm words unavailable", i)
		}
	}
	rep := res.Report()
	for _, want := range []string{"rank", "predicted", "comm", "winner", res.Fingerprint.ID()} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	order := res.SortedByMeasured()
	if order[0] != res.Winner {
		t.Errorf("SortedByMeasured()[0] = %d, winner = %d", order[0], res.Winner)
	}
}

func TestTournamentEmitsDecisionTrace(t *testing.T) {
	reg := telemetry.New()
	prev := telemetry.SetActive(reg)
	defer telemetry.SetActive(prev)

	a := analysisFor(t, paperex.Example8, map[string]int64{"N": 8})
	if _, err := RunTournamentCtx(context.Background(), a, TournamentOptions{Procs: 2, K: 2}); err != nil {
		t.Fatal(err)
	}
	var cand, chosen int
	for _, ev := range reg.Events() {
		switch ev.Kind {
		case "autotune.tournament.candidate":
			cand++
		case "autotune.tournament.chosen":
			chosen++
		}
	}
	if cand == 0 || chosen != 1 {
		t.Errorf("decision trace: %d candidate events, %d chosen events", cand, chosen)
	}
}

func TestTournamentErrors(t *testing.T) {
	a := analysisFor(t, paperex.Example2, nil)
	if _, err := RunTournamentCtx(context.Background(), a, TournamentOptions{Procs: 0}); err == nil {
		t.Error("procs=0 accepted")
	}
	if _, err := RunTournamentCtx(context.Background(), a, TournamentOptions{Procs: 4, Strategy: "diagonal"}); err == nil {
		t.Error("unknown strategy accepted")
	}
}
