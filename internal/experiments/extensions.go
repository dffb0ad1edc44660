package experiments

import (
	"context"
	"fmt"

	"looppart"
	"looppart/internal/cachesim"
	"looppart/internal/footprint"
	"looppart/internal/intmat"
	"looppart/internal/layout"
	"looppart/internal/loopir"
	"looppart/internal/machine"
	"looppart/internal/paperex"
	"looppart/internal/partition"
	"looppart/internal/sched"
	"looppart/internal/tile"
)

// Extension experiments: features the paper defers to citations or states
// without measurement — cache lines longer than one element (§2.2, via
// Abraham–Hudak) and the small-cache regime (§2.2: shrink the tile, keep
// the aspect ratio).

// E15 — cache lines longer than one element: misses shrink along the
// storage dimension, unit-line results are recovered at lineSize=1, and
// long lines across column-strip boundaries create false sharing.
func E15() Result {
	const id, title = "E15", "Cache-line extension (§2.2 via [6])"
	claim := "line-granular misses scale down along storage order; false sharing appears on misaligned cuts"
	src := `
doall (i, 1, 32)
  doall (j, 1, 32)
    A[i,j] = B[i,j-1] + B[i,j+1]
  enddoall
enddoall`
	n, err := loopir.Parse(src, nil)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	space := tile.BoundsOf(n)
	tl, err := tile.RectTilingFor(space, []int64{8, 32})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	assign, err := tile.Assign(tl, space, 4)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	var rows []Row
	var misses []int64
	for _, ls := range []int64{1, 2, 4, 8} {
		mm, err := layout.MapNest(n, ls)
		if err != nil {
			return errResult(id, title, claim, err)
		}
		m, err := cachesim.New(cachesim.DefaultConfig(4))
		if err != nil {
			return errResult(id, title, claim, err)
		}
		if err := cachesim.RunNestLines(m, n, assign.ProcOf, mm); err != nil {
			return errResult(id, title, claim, err)
		}
		got := m.Finish()
		misses = append(misses, got.Misses())
		rows = append(rows, Row{
			fmt.Sprintf("row strips, line size %d", ls),
			float64(got.Misses()), "misses",
			fmt.Sprintf("invalidations %d", got.Invalidations),
		})
	}
	decreasing := true
	for i := 1; i < len(misses); i++ {
		if misses[i] >= misses[i-1] {
			decreasing = false
		}
	}
	// False sharing: 16-element lines straddle the 8-wide column strips,
	// so adjacent processors write disjoint elements of the same line.
	colTl, err := tile.RectTilingFor(space, []int64{32, 8})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	colAssign, err := tile.Assign(colTl, space, 4)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	mm16, err := layout.MapNest(n, 16)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	mCol, err := cachesim.New(cachesim.DefaultConfig(4))
	if err != nil {
		return errResult(id, title, claim, err)
	}
	if err := cachesim.RunNestLines(mCol, n, colAssign.ProcOf, mm16); err != nil {
		return errResult(id, title, claim, err)
	}
	colGot := mCol.Finish()
	rows = append(rows, Row{
		"8-wide column strips, line size 16",
		float64(colGot.Misses()), "misses",
		fmt.Sprintf("invalidations %d (false sharing)", colGot.Invalidations),
	})
	return Result{
		ID: id, Title: title, Paper: claim, Rows: rows,
		Pass: decreasing && colGot.Invalidations > 0 && misses[3] <= misses[0]/4,
	}
}

// E16 — small caches (§2.2): "the optimal loop partition aspect ratios do
// not change, rather, the size of each loop tile executed at any given
// time must be adjusted so that the data fits in the cache." Subdividing
// the tile into cache-fitting blocks (same aspect) restores most of the
// reuse a long scan loses.
func E16() Result {
	const id, title = "E16", "Small caches: subdivide, don't reshape (§2.2)"
	claim := "blocked tile traversal under a small cache ≈ infinite-cache misses; long scans thrash"
	src := `
doall (i, 1, 24)
  doall (j, 1, 24)
    A[i,j] = B[i-1,j] + B[i+1,j] + B[i,j-1] + B[i,j+1]
  enddoall
enddoall`
	n, err := loopir.Parse(src, nil)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	// One processor's 24×24 tile, cache of 64 lines (footprint ~1200).
	var rowOrder, blocked [][]int64
	tile.BoundsOf(n).ForEach(func(p []int64) bool {
		rowOrder = append(rowOrder, append([]int64(nil), p...))
		return true
	})
	for bi := int64(1); bi <= 24; bi += 6 {
		for bj := int64(1); bj <= 24; bj += 6 {
			for i := bi; i < bi+6; i++ {
				for j := bj; j < bj+6; j++ {
					blocked = append(blocked, []int64{i, j})
				}
			}
		}
	}
	replay := func(points [][]int64, cacheLines int) (cachesim.Metrics, error) {
		cfg := cachesim.DefaultConfig(1)
		cfg.CacheLines = cacheLines
		m, err := cachesim.New(cfg)
		if err != nil {
			return cachesim.Metrics{}, err
		}
		if err := cachesim.ReplayPoints(m, n, 0, points, nil); err != nil {
			return cachesim.Metrics{}, err
		}
		return m.Finish(), nil
	}
	infinite, err := replay(rowOrder, 0)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	rowSmall, err := replay(rowOrder, 64)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	blockSmall, err := replay(blocked, 64)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	return Result{
		ID: id, Title: title, Paper: claim,
		Rows: []Row{
			{"infinite cache (footprint)", float64(infinite.Misses()), "misses", ""},
			{"64-line cache, row scan", float64(rowSmall.Misses()), "misses", fmt.Sprintf("capacity %d", rowSmall.CapacityMisses)},
			{"64-line cache, 6x6 blocked scan", float64(blockSmall.Misses()), "misses", fmt.Sprintf("capacity %d", blockSmall.CapacityMisses)},
		},
		Pass: blockSmall.Misses() < rowSmall.Misses() &&
			float64(blockSmall.Misses()) < 1.25*float64(infinite.Misses()),
	}
}

// E17 — data-partitioning spread ablation (footnote 2): for a class whose
// offsets are not symmetric, the cumulative spread a⁺ exceeds the cache
// spread â, and the local-memory traffic model built on a⁺ matches the
// mesh simulator's remote-miss ordering better than the â model.
func E17() Result {
	const id, title = "E17", "Spread ablation: â (caches) vs a⁺ (local memory)"
	claim := "a⁺ ≥ â componentwise; they differ exactly when interior offsets deviate from the median"
	src := `
doall (i, 1, 32)
  doall (j, 1, 32)
    A[i,j] = B[i,j] + B[i+1,j] + B[i+5,j]
  enddoall
enddoall`
	prog, err := looppart.Parse(src, nil)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	var bClass footprint.Class
	for _, c := range prog.Analysis.Classes {
		if c.Array == "B" {
			bClass = c
		}
	}
	spread := bClass.Spread()
	cumul := bClass.CumulativeSpread()
	// Offsets 0, 1, 5 in dim 0: â = 5, a⁺ = |0−1| + |1−1| + |5−1| = 5.
	// Add a fourth reference to separate them? The class above has
	// â₀ = 5 and a⁺₀ = 5; use the documented 4-ref case instead.
	src4 := `
doall (i, 1, 32)
  doall (j, 1, 32)
    A[i,j] = B[i,j] + B[i+1,j] + B[i+2,j] + B[i+7,j]
  enddoall
enddoall`
	prog4, err := looppart.Parse(src4, nil)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	var b4 footprint.Class
	for _, c := range prog4.Analysis.Classes {
		if c.Array == "B" {
			b4 = c
		}
	}
	s4 := b4.Spread()
	c4 := b4.CumulativeSpread()
	pass := spread[0] == 5 && cumul[0] == 5 && s4[0] == 7 && c4[0] == 8
	for k := range s4 {
		if c4[k] < s4[k] {
			pass = false // a⁺ must dominate â
		}
	}
	return Result{
		ID: id, Title: title, Paper: claim,
		Rows: []Row{
			{"3-ref class â (dim 0)", float64(spread[0]), "", fmt.Sprintf("a+ = %d (equal: extremes dominate)", cumul[0])},
			{"4-ref class â (dim 0)", float64(s4[0]), "", fmt.Sprintf("a+ = %d (interior ref adds local traffic)", c4[0])},
		},
		Pass: pass,
	}
}

// E18 — line-aware shape ablation: as lines grow, the optimal tile
// elongates along storage order while the unit-line optimum stays the
// paper's shape. (The paper keeps unit lines and cites [6] for the
// extension; this measures what the extension changes.)
func E18() Result {
	const id, title = "E18", "Line-aware tile shapes (ablation)"
	claim := "unit lines: square optimum for a symmetric stencil; long lines: storage-order elongation"
	src := `
doall (i, 1, 64)
  doall (j, 1, 64)
    A[i,j] = B[i-2,j] + B[i+2,j] + B[i,j-2] + B[i,j+2]
  enddoall
enddoall`
	n, err := loopir.Parse(src, nil)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	a, err := footprint.Analyze(n)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	var rows []Row
	shapes := map[int64][]int64{}
	for _, ls := range []int64{1, 4, 16} {
		plan, err := partition.OptimizeRectLines(a, 16, ls)
		if err != nil {
			return errResult(id, title, claim, err)
		}
		shapes[ls] = plan.Ext
		rows = append(rows, Row{
			fmt.Sprintf("optimal tile at line size %d", ls),
			plan.PredictedFootprint, "lines",
			fmt.Sprintf("ext %v", plan.Ext),
		})
	}
	sq := shapes[1]
	long := shapes[16]
	pass := sq[0] == sq[1] && long[1] > long[0]
	return Result{ID: id, Title: title, Paper: claim, Rows: rows, Pass: pass}
}

// E19 — placement (§4's third analysis): mapping the virtual processor
// grid onto the physical mesh. The paper calls it "a smaller effect that
// may become important in very large machines": with a factored grid
// placement, tile neighbors stay ~1 hop apart at every scale, while the
// naive linear numbering pays hops that grow with machine size.
func E19() Result {
	const id, title = "E19", "Virtual-to-physical placement (§4)"
	claim := "factored placement keeps halo exchanges ~1 hop; linear numbering degrades with scale"
	type scale struct {
		nodes int
		grid  []int64
	}
	scales := []scale{
		{16, []int64{8, 2}},
		{64, []int64{16, 4}},
		{256, []int64{32, 8}},
	}
	var rows []Row
	pass := true
	var prevRatio float64
	for _, sc := range scales {
		mesh, err := machine.SquarishMesh(sc.nodes)
		if err != nil {
			return errResult(id, title, claim, err)
		}
		gp, err := machine.NewGridPlacement(sc.grid, mesh)
		if err != nil {
			return errResult(id, title, claim, err)
		}
		gridCost := machine.NeighborHopCost(sc.grid, gp.NodeOf, mesh)
		linCost := machine.NeighborHopCost(sc.grid, machine.LinearPlacement(mesh), mesh)
		ratio := float64(linCost) / float64(gridCost)
		rows = append(rows, Row{
			fmt.Sprintf("%d nodes, grid %v", sc.nodes, sc.grid),
			ratio, "x",
			fmt.Sprintf("grid %d hops vs linear %d", gridCost, linCost),
		})
		if gridCost >= linCost {
			pass = false
		}
		if ratio < prevRatio {
			pass = false // the gap must widen (or hold) with scale
		}
		prevRatio = ratio
	}
	return Result{ID: id, Title: title, Paper: claim, Rows: rows, Pass: pass}
}

// E20 — footprint-model accuracy ablation: the paper's linearized spread
// model vs the pairwise inclusion–exclusion refinement vs ground truth,
// over a deterministic family of multi-reference classes. The refinement's
// bounds must always bracket the truth, and its point estimate must be at
// least as accurate on average.
func E20() Result {
	const id, title = "E20", "Model accuracy: spread vs inclusion–exclusion"
	claim := "IE bounds always bracket exact counts; midpoint beats the linearized model on average"
	gs := []intmat.Mat{
		intmat.Identity(2),
		intmat.FromRows([][]int64{{1, 0}, {1, 1}}),
		intmat.FromRows([][]int64{{1, 1}, {1, -1}}),
	}
	offsets := [][][]int64{
		{{0, 0}, {2, 0}, {0, 2}},
		{{0, 0}, {3, 0}, {0, 3}, {3, 3}},
		{{0, 0}, {1, 1}, {2, 2}, {3, 3}},
		{{0, 0}, {2, -2}, {-1, 1}},
	}
	cases, bracketOK := 0, 0
	var errLin, errRef float64
	for _, g := range gs {
		for _, offs := range offsets {
			refs := make([]footprint.Ref, len(offs))
			for i, u := range offs {
				refs[i] = footprint.Ref{Array: "A", G: g, A: g.MulVec(u)}
			}
			c := footprint.NewClass("A", g, refs)
			for _, ext := range [][]int64{{5, 5}, {8, 4}} {
				exact := float64(footprint.ExactClassFootprint(c, rectPoints(ext)))
				lin, _ := c.RectFootprintLinearized(ext)
				ref, _ := c.RectFootprintRefined(ext)
				lo, hi, ok := c.RectFootprintBounds(ext)
				cases++
				if ok && exact >= lo-1e-9 && exact <= hi+1e-9 {
					bracketOK++
				}
				errLin += abs(lin - exact)
				errRef += abs(ref - exact)
			}
		}
	}
	return Result{
		ID: id, Title: title, Paper: claim,
		Rows: []Row{
			{"cases checked", float64(cases), "", ""},
			{"IE bounds bracket exact", float64(bracketOK), "cases", ""},
			{"mean |linearized − exact|", errLin / float64(cases), "points", ""},
			{"mean |IE midpoint − exact|", errRef / float64(cases), "points", ""},
		},
		Pass: bracketOK == cases && errRef <= errLin,
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// E21 — the introduction's motivating contrast: runtime scheduling (§1's
// [1,2]) balances load but cannot see the data-space geometry, so its
// linearized chunks share far more data than compile-time tiles of the
// same size. Measured on Example 8's stencil.
func E21() Result {
	const id, title = "E21", "Compile-time tiles vs runtime scheduling (§1)"
	claim := "static tiles minimize sharing; chunked/guided/self scheduling share progressively more"
	prog, err := looppart.Parse(paperex.Example8, map[string]int64{"N": 16})
	if err != nil {
		return errResult(id, title, claim, err)
	}
	const procs = 8
	space := tile.BoundsOf(prog.Nest)

	simulate := func(assign func(p []int64) int) (cachesim.Metrics, error) {
		m, err := cachesim.New(cachesim.DefaultConfig(procs))
		if err != nil {
			return cachesim.Metrics{}, err
		}
		if err := cachesim.RunNest(m, prog.Nest, assign); err != nil {
			return cachesim.Metrics{}, err
		}
		return m.Finish(), nil
	}

	plan, err := prog.Partition(context.Background(), procs, looppart.Rect)
	if err != nil {
		return errResult(id, title, claim, err)
	}
	tiled, err := plan.Simulate(looppart.SimOptions{})
	if err != nil {
		return errResult(id, title, claim, err)
	}

	rows := []Row{{
		"compile-time tiles", float64(tiled.SharedData), "shared",
		fmt.Sprintf("%v, misses/proc %.0f", plan.Tile, tiled.MissesPerProc()),
	}}
	shared := map[sched.Policy]int64{}
	for _, pol := range []sched.Policy{sched.Chunked, sched.Guided, sched.SelfScheduled} {
		owner, err := sched.Schedule(pol, space.Size(), procs)
		if err != nil {
			return errResult(id, title, claim, err)
		}
		m, err := simulate(func(p []int64) int {
			return owner[sched.Linearize(p, space.Lo, space.Hi)]
		})
		if err != nil {
			return errResult(id, title, claim, err)
		}
		shared[pol] = m.SharedData
		rows = append(rows, Row{
			fmt.Sprintf("%s scheduling", pol), float64(m.SharedData), "shared",
			fmt.Sprintf("misses/proc %.0f, %d grabs", m.MissesPerProc(),
				sched.ChunkCount(pol, space.Size(), procs)),
		})
	}
	return Result{
		ID: id, Title: title, Paper: claim, Rows: rows,
		Pass: tiled.SharedData < shared[sched.Chunked] &&
			shared[sched.Chunked] <= shared[sched.Guided] &&
			shared[sched.Guided] < shared[sched.SelfScheduled],
	}
}
