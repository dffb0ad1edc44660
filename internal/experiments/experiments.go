// Package experiments reproduces every quantitative artifact of the paper
// — its worked examples, figures, and comparative claims — as structured,
// checkable results. cmd/paperbench prints them as tables; bench_test.go
// regenerates each under `go test -bench`; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"looppart"
	"looppart/internal/footprint"
	"looppart/internal/intmat"
	"looppart/internal/lattice"
	"looppart/internal/paperex"
	"looppart/internal/partition"
	"looppart/internal/telemetry"
	"looppart/internal/tile"
)

// Row is one measured line of an experiment.
type Row struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// Result is one experiment's outcome.
type Result struct {
	ID    string
	Title string
	// Paper is the claim as stated in the paper.
	Paper string
	Rows  []Row
	// Pass reports whether the measured values support the claim.
	Pass bool
	Err  error
	// Telemetry holds the per-experiment instrument snapshot when the
	// experiment ran under an active telemetry registry (see RunAll);
	// nil otherwise.
	Telemetry *telemetry.Snapshot
}

func (r Result) String() string {
	var b strings.Builder
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	if r.Err != nil {
		status = "ERROR: " + r.Err.Error()
	}
	fmt.Fprintf(&b, "%s %s — %s [%s]\n", r.ID, r.Title, r.Paper, status)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "    %-44s %12.2f %-10s %s\n", row.Name, row.Value, row.Unit, row.Note)
	}
	return b.String()
}

// Catalog lists every experiment in run order, so callers can enumerate,
// filter, or run them individually.
var Catalog = []struct {
	ID  string
	Run func() Result
}{
	{"E1", E1}, {"E2", E2}, {"E3", E3}, {"E4", E4}, {"E5", E5},
	{"E6", E6}, {"E7", E7}, {"E8", E8}, {"E9", E9}, {"E10", E10},
	{"E11", E11}, {"E12", E12}, {"E13", E13}, {"E14", E14},
	{"E15", E15}, {"E16", E16}, {"E17", E17}, {"E18", E18},
	{"E19", E19}, {"E20", E20}, {"E21", E21},
}

// IDs returns the known experiment IDs in run order.
func IDs() []string {
	out := make([]string, len(Catalog))
	for i, e := range Catalog {
		out[i] = e.ID
	}
	return out
}

// All runs every experiment.
func All() []Result {
	results, _ := RunAll(nil, nil)
	return results
}

// RunAll runs the selected experiments (nil or empty ids = all). When reg
// is non-nil it is installed as the active telemetry registry for the
// duration (restoring the previous one afterwards); each experiment then
// runs inside an experiment.<ID> span and carries the per-experiment
// snapshot delta in Result.Telemetry. Unknown ids produce an error listing
// the known IDs.
func RunAll(ids []string, reg *telemetry.Registry) ([]Result, error) {
	selected := Catalog
	if len(ids) > 0 {
		selected = selected[:0:0]
		for _, id := range ids {
			found := false
			for _, e := range Catalog {
				if e.ID == id {
					selected = append(selected, e)
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
			}
		}
	}
	if reg != nil {
		prev := telemetry.SetActive(reg)
		defer telemetry.SetActive(prev)
	}
	results := make([]Result, 0, len(selected))
	for _, e := range selected {
		if reg == nil {
			results = append(results, e.Run())
			continue
		}
		before := reg.Snapshot()
		eventsBefore, spansBefore := len(reg.Events()), len(reg.Spans())
		sp := reg.StartSpan("experiment." + e.ID)
		r := e.Run()
		sp.End()
		delta := reg.Snapshot().Delta(before)
		delta.Counters["telemetry.events"] = int64(len(reg.Events()) - eventsBefore)
		delta.Counters["telemetry.spans"] = int64(len(reg.Spans()) - spansBefore)
		r.Telemetry = &delta
		reg.Counter("experiments.run").Add(1)
		if r.Pass {
			reg.Counter("experiments.pass").Add(1)
		}
		results = append(results, r)
	}
	return results, nil
}

// FormatTable renders results for the CLI.
func FormatTable(results []Result) string {
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.String())
		b.WriteString("\n")
	}
	pass := 0
	for _, r := range results {
		if r.Pass {
			pass++
		}
	}
	fmt.Fprintf(&b, "%d/%d experiments reproduce the paper's claims\n", pass, len(results))
	return b.String()
}

func errResult(id, title, claim string, err error) Result {
	return Result{ID: id, Title: title, Paper: claim, Err: err}
}

// E1 — Example 2 / Figure 3: partition a (100×1 strips) gives 104 misses
// per tile on the B class and zero coherence traffic; partition b (10×10
// blocks) gives 140.
func E1() Result {
	const id, title = "E1", "Example 2 partitions (Figure 3)"
	claim := "partition a: 104 B-misses/tile, zero coherence; partition b: 140"
	prog, err := looppart.Parse(paperex.Example2, nil)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	var bClass footprint.Class
	for _, c := range prog.Analysis.Classes {
		if c.Array == "B" {
			bClass = c
		}
	}
	fpA, _ := bClass.RectFootprint([]int64{100, 1})
	fpB, _ := bClass.RectFootprint([]int64{10, 10})

	cols, err := prog.Partition(context.Background(), 100, looppart.Columns)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	mCols, err := cols.Simulate(looppart.SimOptions{})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	blocks, err := prog.Partition(context.Background(), 100, looppart.Blocks)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	mBlocks, err := blocks.Simulate(looppart.SimOptions{})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	return Result{
		ID: id, Title: title, Paper: claim,
		Rows: []Row{
			{"model B-footprint, partition a (100x1)", fpA, "misses", "paper: 104"},
			{"model B-footprint, partition b (10x10)", fpB, "misses", "paper: 140"},
			{"simulated misses/proc, partition a", mCols.MissesPerProc(), "misses", "104 B + 100 A"},
			{"simulated misses/proc, partition b", mBlocks.MissesPerProc(), "misses", "140 B + 100 A"},
			{"simulated shared data, partition a", float64(mCols.SharedData), "elements", "paper: zero coherence traffic"},
			{"simulated shared data, partition b", float64(mBlocks.SharedData), "elements", ""},
		},
		Pass: fpA == 104 && fpB == 140 &&
			mCols.MissesPerProc() == 204 && mBlocks.MissesPerProc() == 240 &&
			mCols.SharedData == 0 && mBlocks.SharedData > 0,
	}
}

// E2 — Example 3: parallelogram tiles beat every rectangular partition.
func E2() Result {
	const id, title = "E2", "Example 3 parallelogram tiles"
	claim := "skewed tiles internalize the (1,3)-direction reuse that rectangles pay for"
	prog, err := looppart.Parse(paperex.Example3, map[string]int64{"N": 24})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	skew, err := prog.Partition(context.Background(), 8, looppart.Skewed)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	rect, err := prog.Partition(context.Background(), 8, looppart.Rect)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	mSkew, err := skew.Simulate(looppart.SimOptions{})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	mRect, err := rect.Simulate(looppart.SimOptions{})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	return Result{
		ID: id, Title: title, Paper: claim,
		Rows: []Row{
			{"best rect misses/proc", mRect.MissesPerProc(), "misses", fmt.Sprint(rect.Tile)},
			{"best skew misses/proc", mSkew.MissesPerProc(), "misses", fmt.Sprint(skew.Tile)},
			{"rect shared data", float64(mRect.SharedData), "elements", ""},
			{"skew shared data", float64(mSkew.SharedData), "elements", ""},
		},
		Pass: mSkew.SharedData < mRect.SharedData && mSkew.MissesPerProc() <= mRect.MissesPerProc(),
	}
}

// E3 — Example 6 / Figures 5–6: footprint of L=[[L1,L1],[L2,0]] w.r.t.
// B[i+j,j] is |det LG| = L1·L2 (+ boundary terms in the closed-tile
// count).
func E3() Result {
	const id, title = "E3", "Example 6 single-reference footprint"
	claim := "footprint size |det LG| = L1*L2 for L=[[L1,L1],[L2,0]], G=[[1,0],[1,1]]"
	prog, err := looppart.Parse(paperex.Example6, nil)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	var bClass footprint.Class
	for _, c := range prog.Analysis.Classes {
		if c.Array == "B" {
			bClass = c
		}
	}
	single := footprint.Class{Array: bClass.Array, G: bClass.G, Refs: bClass.Refs[:1], Reduced: bClass.Reduced}
	pass := true
	var rows []Row
	for _, dims := range [][2]int64{{4, 3}, {6, 5}, {10, 10}, {8, 2}} {
		L1, L2 := dims[0], dims[1]
		t := tile.Parallelepiped(intmat.FromRows([][]int64{{L1, L1}, {L2, 0}}))
		vol, _ := single.SingleFootprintVolume(t)
		exact := footprint.ExactClassFootprint(single, tile.OriginPoints(t))
		rows = append(rows, Row{
			fmt.Sprintf("L1=%d L2=%d: |det LG| vs exact", L1, L2),
			float64(exact), "points",
			fmt.Sprintf("model %d", vol),
		})
		if vol != L1*L2 || exact != vol {
			pass = false
		}
	}
	return Result{ID: id, Title: title, Paper: claim, Rows: rows, Pass: pass}
}

// E4 — Example 6 / Figures 7–8: the cumulative footprint via Theorem 2
// with â = (1,2) tracks exact enumeration.
func E4() Result {
	const id, title = "E4", "Example 6 cumulative footprint (Theorem 2)"
	claim := "|det LG| + |det LG(1→â)| + |det LG(2→â)| approximates the union"
	prog, err := looppart.Parse(paperex.Example6, nil)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	var bClass footprint.Class
	for _, c := range prog.Analysis.Classes {
		if c.Array == "B" {
			bClass = c
		}
	}
	pass := true
	var rows []Row
	for _, l := range []intmat.Mat{
		intmat.FromRows([][]int64{{6, 6}, {5, 0}}),
		intmat.FromRows([][]int64{{10, 0}, {0, 10}}),
		intmat.FromRows([][]int64{{8, 4}, {2, 6}}),
	} {
		t := tile.Parallelepiped(l)
		model, _ := bClass.TileFootprint(t)
		exact := float64(footprint.ExactClassFootprint(bClass, tile.OriginPoints(t)))
		relErr := math.Abs(model-exact) / exact
		rows = append(rows, Row{
			fmt.Sprintf("L=%v", l), exact, "points",
			fmt.Sprintf("model %.0f, rel.err %.1f%%", model, 100*relErr),
		})
		if relErr > 0.20 {
			pass = false
		}
	}
	return Result{ID: id, Title: title, Paper: claim, Rows: rows, Pass: pass}
}

// E5 — Example 8: optimal rectangular aspect ratios Li:Lj:Lk = 2:3:4;
// Abraham–Hudak agrees; the simulator confirms the miss ordering.
func E5() Result {
	const id, title = "E5", "Example 8 optimal aspect ratios"
	claim := "Li:Lj:Lk :: 2:3:4; matches Abraham–Hudak; beats naive shapes"
	prog, err := looppart.Parse(paperex.Example8, map[string]int64{"N": 24})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	coeffs, ok := partition.ContinuousRatios(prog.Analysis)
	if !ok {
		return errResult(id, title, claim, fmt.Errorf("no closed form"))
	}
	opt, err := prog.Partition(context.Background(), 8, looppart.Rect)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	blocks, err := prog.Partition(context.Background(), 8, looppart.Blocks)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	rows8, err := prog.Partition(context.Background(), 8, looppart.Rows)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	mOpt, err := opt.Simulate(looppart.SimOptions{})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	mBlocks, err := blocks.Simulate(looppart.SimOptions{})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	mRows, err := rows8.Simulate(looppart.SimOptions{})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	return Result{
		ID: id, Title: title, Paper: claim,
		Rows: []Row{
			{"Lagrange coefficients (i,j,k)", coeffs[0], "", fmt.Sprintf("full: %v (paper 2:3:4)", coeffs)},
			{"optimized misses/proc", mOpt.MissesPerProc(), "misses", fmt.Sprint(opt.Tile)},
			{"cubic blocks misses/proc", mBlocks.MissesPerProc(), "misses", fmt.Sprint(blocks.Tile)},
			{"row slabs misses/proc", mRows.MissesPerProc(), "misses", fmt.Sprint(rows8.Tile)},
		},
		Pass: coeffs[0] == 2 && coeffs[1] == 3 && coeffs[2] == 4 &&
			mOpt.MissesPerProc() <= mBlocks.MissesPerProc() &&
			mOpt.MissesPerProc() < mRows.MissesPerProc(),
	}
}

// E6 — Figure 9: under an outer doseq, per-epoch coherence traffic follows
// the spread terms and the same tile shape stays optimal.
func E6() Result {
	const id, title = "E6", "Doseq steady-state coherence (Figure 9)"
	claim := "per-epoch coherence traffic = spread terms; 2:3:4 tiles minimize it"
	prog, err := looppart.Parse(paperex.Fig9Stencil, map[string]int64{"N": 12, "T": 3})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	// Compare the optimal-shape tiles against slab tiles of equal volume.
	simShape := func(s looppart.Strategy) (float64, float64, error) {
		plan, err := prog.Partition(context.Background(), 8, s)
		if err != nil {
			return 0, 0, err
		}
		m, err := plan.Simulate(looppart.SimOptions{})
		if err != nil {
			return 0, 0, err
		}
		return float64(m.CoherenceMisses), float64(m.Invalidations), nil
	}
	optCoh, optInv, err := simShape(looppart.Rect)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	rowCoh, rowInv, err := simShape(looppart.Rows)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	return Result{
		ID: id, Title: title, Paper: claim,
		Rows: []Row{
			{"optimal tile coherence misses (3 epochs)", optCoh, "misses", fmt.Sprintf("invalidations %.0f", optInv)},
			{"row slab coherence misses (3 epochs)", rowCoh, "misses", fmt.Sprintf("invalidations %.0f", rowInv)},
		},
		Pass: optCoh < rowCoh,
	}
}

// E7 — Example 9: two uniformly intersecting classes add; the optimizer's
// argmin matches exhaustive exact enumeration.
func E7() Result {
	const id, title = "E7", "Example 9 multiple classes"
	claim := "B and C traffic add: coefficients (1+3, 2+2); optimizer matches exact argmin"
	prog, err := looppart.Parse(paperex.Example9, map[string]int64{"N": 24})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	coeffs, ok := partition.ContinuousRatios(prog.Analysis)
	if !ok {
		return errResult(id, title, claim, fmt.Errorf("no closed form"))
	}
	plan, err := prog.Partition(context.Background(), 8, looppart.Rect)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	// Exhaustive exact check over the 8-processor grids.
	type cand struct {
		ext   []int64
		exact int64
	}
	var cands []cand
	for _, grid := range [][2]int64{{1, 8}, {2, 4}, {4, 2}, {8, 1}} {
		ext := []int64{24 / grid[0], 24 / grid[1]}
		pts := rectPoints(ext)
		cands = append(cands, cand{ext, prog.Analysis.ExactTotalFootprint(pts)})
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.exact < best.exact {
			best = c
		}
	}
	planPts := rectPoints(plan.Tile.Extents())
	planExact := prog.Analysis.ExactTotalFootprint(planPts)
	rows := []Row{
		{"traffic coefficients (i,j)", coeffs[0], "", fmt.Sprintf("full: %v", coeffs)},
		{"optimizer tile exact footprint", float64(planExact), "points", fmt.Sprint(plan.Tile)},
		{"exhaustive best exact footprint", float64(best.exact), "points", fmt.Sprint(best.ext)},
	}
	return Result{
		ID: id, Title: title, Paper: claim, Rows: rows,
		Pass: coeffs[0] == 4 && coeffs[1] == 4 && planExact == best.exact,
	}
}

// E8 — Example 10: non-unimodular class handled via the lattice; optimum
// near 2Li = 3Lj + 1; model matches enumeration exactly for the 2-ref
// classes.
func E8() Result {
	const id, title = "E8", "Example 10 non-unimodular lattice class"
	claim := "â=(4,2)=3g1+1g2; footprint exact on the det=-2 lattice; optimum Li:Lj ≈ 3:2"
	prog, err := looppart.Parse(paperex.Example10, map[string]int64{"N": 36})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	var bClass footprint.Class
	for _, c := range prog.Analysis.Classes {
		if c.Array == "B" && len(c.Refs) == 2 {
			bClass = c
		}
	}
	u, integral, ok := bClass.SpreadCoeffs()
	if !ok || !integral {
		return errResult(id, title, claim, fmt.Errorf("spread decomposition failed"))
	}
	pass := u[0] == 3 && u[1] == 1
	var rows []Row
	rows = append(rows, Row{"spread coefficients |u|", u[0], "", fmt.Sprintf("full: %v (paper 3,1)", u)})
	for _, ext := range [][]int64{{6, 6}, {9, 4}, {12, 3}, {4, 9}} {
		model, _ := bClass.RectFootprint(ext)
		exact := float64(footprint.ExactClassFootprint(bClass, rectPoints(ext)))
		rows = append(rows, Row{
			fmt.Sprintf("B footprint ext=%v", ext), exact, "points",
			fmt.Sprintf("model %.0f", model),
		})
		if model != exact {
			pass = false
		}
	}
	plan, err := prog.Partition(context.Background(), 6, looppart.Rect)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	ext := plan.Tile.Extents()
	rows = append(rows, Row{"optimizer extents (36x36, P=6)", float64(ext[0]), "", fmt.Sprintf("ext %v; 3:2 ratio → (18,12)", ext)})
	if !(ext[0] > ext[1]) {
		pass = false
	}
	return Result{ID: id, Title: title, Paper: claim, Rows: rows, Pass: pass}
}

// E9 — Theorem 3 and Lemma 3: bounded-lattice intersection and union size
// against brute force over a deterministic sweep.
func E9() Result {
	const id, title = "E9", "Lattice union size (Lemma 3)"
	claim := "|L1 ∪ L2| = 2Π(λ+1) − Π(λ+1−u) exactly; linearized error = Πu terms"
	g := intmat.FromRows([][]int64{{1, 1}, {1, -1}})
	checks, exactHits := 0, 0
	maxLinErr := 0.0 // over overlapping cases only (u within bounds)
	for l1 := int64(1); l1 <= 6; l1++ {
		for l2 := int64(1); l2 <= 6; l2++ {
			for u1 := int64(0); u1 <= 3; u1++ {
				for u2 := int64(0); u2 <= 3; u2++ {
					bounds := []int64{l1, l2}
					b := lattice.New(g, bounds)
					pts := b.Points()
					tvec := g.MulVec([]int64{u1, u2})
					exact := lattice.UnionSize(pts, lattice.Translate(pts, tvec))
					model := lattice.UnionSizeModel(bounds, []int64{u1, u2})
					lin := lattice.UnionSizeLinearized(bounds, []int64{u1, u2})
					checks++
					if exact == model {
						exactHits++
					}
					// The linearized form is the paper's approximation
					// for spreads small relative to the tile; outside
					// that regime (disjoint translates) it is not used.
					if u1 <= l1 && u2 <= l2 {
						if e := math.Abs(float64(lin - exact)); e > maxLinErr {
							maxLinErr = e
						}
					}
				}
			}
		}
	}
	return Result{
		ID: id, Title: title, Paper: claim,
		Rows: []Row{
			{"lattice union checks", float64(checks), "cases", ""},
			{"exact matches (Lemma 3 closed form)", float64(exactHits), "cases", ""},
			{"max |linearized − exact| (overlapping)", maxLinErr, "points", "= Π|u| cross term, ≤ 9"},
		},
		Pass: checks == exactHits && maxLinErr <= 3*3,
	}
}

// E10 — the beyond-[7] claim: communication-free partitions are found
// exactly when they exist.
func E10() Result {
	const id, title = "E10", "Communication-free partitions ([7] reproduction)"
	claim := "found for Examples 2 and 3 (skewed); impossible for Example 10"
	progs := []struct {
		name   string
		src    string
		params map[string]int64
		want   bool
	}{
		{"example2", paperex.Example2, nil, true},
		{"example3", paperex.Example3, map[string]int64{"N": 20}, true},
		{"example10", paperex.Example10, map[string]int64{"N": 20}, false},
	}
	pass := true
	var rows []Row
	for _, pc := range progs {
		prog, err := looppart.Parse(pc.src, pc.params)
		if err != nil {
			return errResult(id, title, claim, err)
		}
		plan, err := prog.Partition(context.Background(), 10, looppart.CommFree)
		found := err == nil
		note := "not found"
		shared := float64(-1)
		if found {
			m, err := plan.Simulate(looppart.SimOptions{})
			if err != nil {
				return errResult(id, title, claim, err)
			}
			shared = float64(m.SharedData)
			note = fmt.Sprintf("normal %v, simulated shared=%d", plan.Slab.Normal, m.SharedData)
			if m.SharedData != 0 {
				pass = false
			}
		}
		if found != pc.want {
			pass = false
		}
		rows = append(rows, Row{pc.name, boolToF(found), "found", note})
		_ = shared
	}
	return Result{ID: id, Title: title, Paper: claim, Rows: rows, Pass: pass}
}

// E11 — Appendix A / Figure 11: matmul with synchronizing accumulates;
// square tiles beat row strips on traffic and weighted cost.
func E11() Result {
	const id, title = "E11", "Matmul with fine-grain synchronization (Fig. 11)"
	claim := "l$ refs behave as writes; blocked tiles beat row strips"
	prog, err := looppart.Parse(paperex.MatmulSync, map[string]int64{"N": 12})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	sim := func(s looppart.Strategy) (looppart.Plan, float64, float64, error) {
		plan, err := prog.Partition(context.Background(), 8, s)
		if err != nil {
			return looppart.Plan{}, 0, 0, err
		}
		m, err := plan.Simulate(looppart.SimOptions{})
		if err != nil {
			return looppart.Plan{}, 0, 0, err
		}
		return *plan, float64(m.Misses()), m.Cost, nil
	}
	_, blockMiss, blockCost, err := sim(looppart.Rect)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	_, rowMiss, rowCost, err := sim(looppart.Rows)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	return Result{
		ID: id, Title: title, Paper: claim,
		Rows: []Row{
			{"optimized tile total misses", blockMiss, "misses", fmt.Sprintf("cost %.0f", blockCost)},
			{"row strips total misses", rowMiss, "misses", fmt.Sprintf("cost %.0f", rowCost)},
		},
		Pass: blockMiss < rowMiss && blockCost < rowCost,
	}
}

// E12 — footnote 2: aligned data partitioning on the mesh maximizes the
// local-miss fraction.
func E12() Result {
	const id, title = "E12", "Data partitioning & alignment (footnote 2, §4)"
	claim := "aligned array tiles serve most misses from local memory"
	prog, err := looppart.Parse(paperex.Example8, map[string]int64{"N": 16})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	plan, err := prog.Partition(context.Background(), 8, looppart.Rect)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	aligned, err := plan.SimulateMesh(looppart.MeshOptions{Aligned: true})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	hashed, err := plan.SimulateMesh(looppart.MeshOptions{Aligned: false})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	fAligned := frac(aligned.LocalMisses, aligned.RemoteMisses)
	fHashed := frac(hashed.LocalMisses, hashed.RemoteMisses)
	return Result{
		ID: id, Title: title, Paper: claim,
		Rows: []Row{
			{"aligned local-miss fraction", fAligned, "", fmt.Sprintf("cost %.0f, hops %d", aligned.Cost, aligned.HopTraffic)},
			{"hashed local-miss fraction", fHashed, "", fmt.Sprintf("cost %.0f, hops %d", hashed.Cost, hashed.HopTraffic)},
		},
		Pass: fAligned > fHashed && aligned.Cost < hashed.Cost && aligned.HopTraffic < hashed.HopTraffic,
	}
}

// E13 — Example 1 / §3.4.1 / Example 7: zero-column dropping and maximal
// independent columns give correct footprints for rank-deficient G.
func E13() Result {
	const id, title = "E13", "Rank-deficient reference matrices (§3.4.1)"
	claim := "footprints via maximal independent columns match enumeration"
	pass := true
	var rows []Row
	// Example 7's A[i,2i,i+j]: reduced to [[1,1],[0,1]] — unimodular, so
	// the footprint equals the tile size.
	prog7, err := looppart.Parse(paperex.Example7Ref, map[string]int64{"N": 16})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	for _, c := range prog7.Analysis.Classes {
		if c.Array != "A" {
			continue
		}
		for _, ext := range [][]int64{{4, 4}, {8, 2}, {3, 5}} {
			model, _ := c.RectFootprint(ext)
			exact := float64(footprint.ExactClassFootprint(c, rectPoints(ext)))
			rows = append(rows, Row{
				fmt.Sprintf("A[i,2i,i+j] ext=%v", ext), exact, "points",
				fmt.Sprintf("model %.0f", model),
			})
			if model != exact {
				pass = false
			}
		}
	}
	// Example 1's A[i3+2,5,i2-1,4]: two zero columns dropped; footprint =
	// extents of i2 and i3 only.
	prog1, err := looppart.Parse(paperex.Example1Ref, map[string]int64{"N": 8})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	for _, c := range prog1.Analysis.Classes {
		if c.Array != "A" {
			continue
		}
		ext := []int64{8, 4, 2} // i1 extent irrelevant
		model, _ := c.RectFootprint(ext)
		exact := float64(footprint.ExactClassFootprint(c, rectPoints(ext)))
		rows = append(rows, Row{"A[i3+2,5,i2-1,4] ext=[8,4,2]", exact, "points", fmt.Sprintf("model %.0f (want 4*2)", model)})
		if model != exact || exact != 8 {
			pass = false
		}
	}
	return Result{ID: id, Title: title, Paper: claim, Rows: rows, Pass: pass}
}

// E14 — generality ablation vs Abraham–Hudak: identical on their domain,
// and our framework covers programs they reject.
func E14() Result {
	const id, title = "E14", "Generality vs Abraham–Hudak [6]"
	claim := "A–H reproduced on its domain; coupled subscripts handled beyond it"
	bOnly := `
doall (i, 1, 48)
  doall (j, 1, 48)
    doall (k, 1, 48)
      B[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3]
    enddoall
  enddoall
enddoall`
	prog, err := looppart.Parse(bOnly, nil)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	ah, err := partition.AbrahamHudak(prog.Analysis, 8)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	ours, err := partition.OptimizeRect(context.Background(), prog.Analysis, 8)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	same := true
	for k := range ah.Ext {
		if ah.Ext[k] != ours.Ext[k] {
			same = false
		}
	}
	// Beyond the domain: Example 6 has coupled subscripts; A–H must
	// reject it while our optimizer partitions it.
	prog6, err := looppart.Parse(paperex.Example6, nil)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	_, errAH := partition.AbrahamHudak(prog6.Analysis, 10)
	_, errOurs := partition.OptimizeRect(context.Background(), prog6.Analysis, 10)
	return Result{
		ID: id, Title: title, Paper: claim,
		Rows: []Row{
			{"A–H extents on its domain", float64(ah.Ext[0]), "", fmt.Sprintf("A–H %v vs ours %v", ah.Ext, ours.Ext)},
			{"A–H rejects coupled subscripts", boolToF(errAH != nil), "", fmt.Sprint(errAH)},
			{"our framework handles them", boolToF(errOurs == nil), "", ""},
		},
		Pass: same && errAH != nil && errOurs == nil,
	}
}

func rectPoints(ext []int64) [][]int64 {
	hi := make([]int64, len(ext))
	for k := range ext {
		hi[k] = ext[k] - 1
	}
	var pts [][]int64
	(tile.Bounds{Lo: make([]int64, len(ext)), Hi: hi}).ForEach(func(p []int64) bool {
		pts = append(pts, p)
		return true
	})
	return pts
}

func frac(local, remote int64) float64 {
	if local+remote == 0 {
		return 1
	}
	return float64(local) / float64(local+remote)
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
