// Package partition derives loop partitions that minimize the predicted
// communication volume: rectangular tilings via discrete search over
// processor-grid factorizations guided by the paper's closed-form Lagrange
// ratios (Examples 8–10), hyperparallelepiped (skewed) tilings via a
// bounded search over integer edge matrices scored with the Theorem 2
// model, communication-free hyperplane partitions in the style of
// Ramanujam and Sadayappan, and the Abraham–Hudak rectangular baseline for
// its restricted program class.
package partition

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"looppart/internal/footprint"
	"looppart/internal/obs"
	"looppart/internal/telemetry"
	"looppart/internal/tile"
)

// RectPlan is a rectangular partition: a per-dimension processor grid and
// the induced tile extents.
type RectPlan struct {
	Grid []int64 // processors per dimension; Π Grid = P
	Ext  []int64 // tile extents per dimension: ceil(N_k / Grid_k)

	// PredictedFootprint is the model cumulative footprint per tile
	// (misses on an infinite cache) and PredictedTraffic the per-tile
	// communication term.
	PredictedFootprint float64
	PredictedTraffic   float64
	Exactness          footprint.Exactness
}

// Tile returns the plan's tile.
func (p RectPlan) Tile() tile.Tile { return tile.Rect(p.Ext...) }

func (p RectPlan) String() string {
	return fmt.Sprintf("grid=%v ext=%v footprint=%.1f traffic=%.1f",
		p.Grid, p.Ext, p.PredictedFootprint, p.PredictedTraffic)
}

// ContinuousRatios returns the closed-form optimal aspect ratios of the
// rectangular tile extents, from the Lagrange conditions on the linearized
// objective Σᵢ cᵢ·Π_{j≠i} Eⱼ with Π Eⱼ fixed: Eᵢ ∝ cᵢ, where
// cᵢ = Σ_classes |uᵢ| (Example 8's Li:Lj:Lk :: 2:3:4).
//
// ok is false if any class required enumeration (no closed form); classes
// whose footprint is shape-invariant contribute zero. A zero coefficient
// means the objective does not constrain that dimension (any extent is
// optimal in the model; larger is better for boundary effects).
func ContinuousRatios(a *footprint.Analysis) (coeffs []float64, ok bool) {
	l := len(a.Vars)
	coeffs = make([]float64, l)
	for _, c := range a.Classes {
		if c.FootprintInvariant() {
			continue
		}
		u, _, solvable := c.SpreadCoeffs()
		if !solvable {
			return nil, false
		}
		for i := range u {
			coeffs[i] += u[i]
		}
	}
	return coeffs, true
}

// ContinuousRatiosData is ContinuousRatios with the cumulative spread a⁺
// (footnote 2) in place of â: the aspect-ratio coefficients for DATA
// partitioning on local-memory machines, where interior references also
// cost traffic because remote data is not dynamically replicated. The
// coefficients dominate the cache (â) coefficients componentwise and
// differ exactly when a class has interior offsets away from the median.
func ContinuousRatiosData(a *footprint.Analysis) (coeffs []float64, ok bool) {
	l := len(a.Vars)
	coeffs = make([]float64, l)
	for _, c := range a.Classes {
		if c.FootprintInvariant() {
			continue
		}
		u, _, solvable := c.CumulativeSpreadCoeffs()
		if !solvable {
			return nil, false
		}
		for i := range u {
			coeffs[i] += u[i]
		}
	}
	return coeffs, true
}

// OptimizeRect finds the rectangular partition of the nest's iteration
// space over P processors minimizing the predicted cumulative footprint.
// It enumerates every factorization of P into a processor grid (one factor
// per doall dimension), computes the induced tile extents, and scores each
// with the footprint model; ties break toward the most balanced grid.
//
// Candidates are scored on the engine's worker pool with the per-class
// model terms memoized once (footprint.Evaluator) and dominated grids
// pruned by the admissible volume bound; the chosen plan is bit-identical
// to a sequential scan.
//
// When ctx carries an obs.Trace, the search runs under a "search.rect"
// span whose attributes record the candidate grid count and the
// evaluated / pruned / infeasible split, plus the winning grid.
func OptimizeRect(ctx context.Context, a *footprint.Analysis, procs int) (RectPlan, error) {
	_, sp := obs.StartSpan(ctx, "search.rect")
	defer sp.End()
	space := tile.BoundsOf(a.Nest)
	l := space.Dim()
	if l == 0 {
		return RectPlan{}, fmt.Errorf("partition: nest has no doall loops")
	}
	if procs <= 0 {
		return RectPlan{}, fmt.Errorf("partition: need at least one processor")
	}
	sizes := space.Extents()
	reg := telemetry.Active()
	grids := factorizations(int64(procs), l)
	ev := footprint.NewEvaluator(a)
	defer recordEnumWork(sp, reg, ev)

	// Closed-form fast path: inside the model's analytic domain the
	// Lagrange-optimal shape is computed in O(1) and certified by a
	// zero-allocation sequential sweep (closedform.go); off-domain nests
	// fall through to the parallel enumerative search below. Either way
	// the returned plan is byte-identical.
	if plan, handled, err := closedFormRect(ctx, a, ev, sizes, grids, procs, sp, reg); handled {
		return plan, err
	}

	type rectCand struct {
		ext   []int64
		fp    float64
		ex    footprint.Exactness
		state uint8
	}
	cands := make([]rectCand, len(grids))
	bound := newMinBound()
	prune := !pruneDisabled.Load()
	var evaluated, pruned, infeasible atomic.Int64
	forEachCandidate(len(grids), func(i int) {
		c := &cands[i]
		grid := grids[i]
		ext := make([]int64, l)
		for k := range grid {
			if grid[k] > sizes[k] {
				infeasible.Add(1)
				return
			}
			ext[k] = ceilDiv(sizes[k], grid[k])
		}
		c.ext = ext
		if prune {
			if lb := ev.RectLowerBound(ext); lb > bound.value()+betterEps {
				c.state = candPruned
				pruned.Add(1)
				return
			}
		}
		c.fp, c.ex = ev.RectTotalFootprint(ext)
		c.state = candEvaluated
		evaluated.Add(1)
		bound.observe(c.fp)
	})
	reg.Counter("partition.rect.candidates").Add(evaluated.Load())
	reg.Counter("partition.rect.pruned").Add(pruned.Load())
	reg.Counter("partition.rect.infeasible").Add(infeasible.Load())
	sp.SetAttr("candidates", int64(len(grids)))
	sp.SetAttr("evaluated", evaluated.Load())
	sp.SetAttr("pruned", pruned.Load())
	sp.SetAttr("infeasible", infeasible.Load())

	// Deterministic reduction: fold the scored candidates in enumeration
	// order with the sequential comparison, so the winner (tie-breaks
	// included) does not depend on worker scheduling.
	var best RectPlan
	found := false
	for i := range cands {
		c := &cands[i]
		if c.state != candEvaluated {
			continue
		}
		cand := RectPlan{Grid: grids[i], Ext: c.ext, PredictedFootprint: c.fp, Exactness: c.ex}
		if reg != nil {
			reg.Emit("partition.rect.candidate", fmt.Sprintf("grid=%v", cand.Grid), map[string]any{
				"grid":      fmt.Sprint(cand.Grid),
				"ext":       fmt.Sprint(cand.Ext),
				"footprint": cand.PredictedFootprint,
				"exactness": cand.Exactness.String(),
			})
		}
		if !found || better(cand, best) {
			best = cand
			found = true
		}
	}
	if !found {
		return RectPlan{}, fmt.Errorf("partition: no feasible grid of %d processors for space %v", procs, sizes)
	}
	best.Grid = cloneGrid(best.Grid)
	_, best.PredictedTraffic, _ = ev.RectTotals(best.Ext)
	sp.SetAttr("grid", fmt.Sprint(best.Grid))
	sp.SetAttr("footprint", best.PredictedFootprint)
	if reg != nil {
		fields := chosenFields(a, best)
		fields["evaluated"] = evaluated.Load()
		fields["pruned"] = pruned.Load()
		reg.Emit("partition.rect.chosen", fmt.Sprintf("grid=%v", best.Grid), fields)
	}
	return best, nil
}

// chosenFields assembles the decision-trace payload for a winning
// rectangular plan: the grid and extents plus the per-class footprint cost
// terms the objective summed — |det LG| (the volume term of Theorems 2/4),
// the spread â, and each class's predicted footprint at the chosen extents.
func chosenFields(a *footprint.Analysis, p RectPlan) map[string]any {
	fields := map[string]any{
		"grid":      fmt.Sprint(p.Grid),
		"ext":       fmt.Sprint(p.Ext),
		"footprint": p.PredictedFootprint,
		"traffic":   p.PredictedTraffic,
		"exactness": p.Exactness.String(),
	}
	t := p.Tile()
	for i, c := range a.Classes {
		key := fmt.Sprintf("class%d.%s", i, c.Array)
		if vol, ok := c.SingleFootprintVolume(t); ok {
			fields[key+".detLG"] = vol
		}
		fields[key+".spread"] = fmt.Sprint(c.Spread())
		fp, _ := c.RectFootprint(p.Ext)
		fields[key+".footprint"] = fp
		fields[key+".invariant"] = c.FootprintInvariant()
	}
	return fields
}

// better orders candidate plans: lower footprint wins; ties go to the
// more balanced grid (smaller max/min factor), then lexicographic.
func better(a, b RectPlan) bool {
	const eps = betterEps
	if a.PredictedFootprint < b.PredictedFootprint-eps {
		return true
	}
	if a.PredictedFootprint > b.PredictedFootprint+eps {
		return false
	}
	if s, t := spreadOf(a.Grid), spreadOf(b.Grid); s != t {
		return s < t
	}
	for k := range a.Grid {
		if a.Grid[k] != b.Grid[k] {
			return a.Grid[k] < b.Grid[k]
		}
	}
	return false
}

func spreadOf(grid []int64) int64 {
	mn, mx := grid[0], grid[0]
	for _, g := range grid {
		if g < mn {
			mn = g
		}
		if g > mx {
			mx = g
		}
	}
	return mx - mn
}

// enumerateFactorizations enumerates all ordered factorizations of n into
// k positive factors, ascending-lexicographic by factor (the order the
// old recursive enumerator produced). The walk is iterative over divisor
// indices with the whole result preallocated in one flat backing array —
// no per-step slice copying. factorizations (factmemo.go) wraps it with
// the bounded (n, k) memo; call that instead.
func enumerateFactorizations(n int64, k int) [][]int64 {
	if k <= 0 || n <= 0 {
		return nil
	}
	divs := divisorsAsc(n)
	if k == 1 {
		return [][]int64{{n}}
	}
	count := countFactorizations(n, k, divs, map[factKey]int{})
	backing := make([]int64, 0, count*k)
	out := make([][]int64, 0, count)

	// idx[d] is the current divisor index chosen at depth d; rem[d] the
	// value left to factor at depth d. The last factor is forced to rem.
	idx := make([]int, k)
	rem := make([]int64, k)
	cur := make([]int64, k)
	rem[0] = n
	depth := 0
	for depth >= 0 {
		if depth == k-1 {
			cur[depth] = rem[depth]
			backing = append(backing, cur...)
			out = append(out, backing[len(backing)-k:])
			depth--
			continue
		}
		advanced := false
		for ; idx[depth] < len(divs); idx[depth]++ {
			d := divs[idx[depth]]
			if rem[depth]%d != 0 {
				continue
			}
			cur[depth] = d
			rem[depth+1] = rem[depth] / d
			idx[depth]++
			depth++
			idx[depth] = 0
			advanced = true
			break
		}
		if !advanced {
			depth--
		}
	}
	return out
}

// divisorsAsc returns the divisors of n in ascending order.
func divisorsAsc(n int64) []int64 {
	var lo, hi []int64
	for d := int64(1); d*d <= n; d++ {
		if n%d != 0 {
			continue
		}
		lo = append(lo, d)
		if q := n / d; q != d {
			hi = append(hi, q)
		}
	}
	for i := len(hi) - 1; i >= 0; i-- {
		lo = append(lo, hi[i])
	}
	return lo
}

type factKey struct {
	n int64
	k int
}

// countFactorizations counts ordered factorizations of n into k positive
// factors, memoized, so the enumerator can preallocate exactly.
func countFactorizations(n int64, k int, divs []int64, memo map[factKey]int) int {
	if k == 1 {
		return 1
	}
	key := factKey{n, k}
	if c, ok := memo[key]; ok {
		return c
	}
	total := 0
	for _, d := range divs {
		if n%d == 0 {
			total += countFactorizations(n/d, k-1, divs, memo)
		}
	}
	memo[key] = total
	return total
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// GridFromRatios picks the factorization of P whose induced extents best
// match the continuous ratio vector (largest coefficient gets the largest
// extent). It is the discretization step after ContinuousRatios; unlike
// OptimizeRect it never evaluates the footprint model, so it shows what
// closed-form-only optimization (the paper's worked method) produces.
func GridFromRatios(space tile.Bounds, coeffs []float64, procs int) (RectPlan, error) {
	l := space.Dim()
	if len(coeffs) != l {
		return RectPlan{}, fmt.Errorf("partition: %d coefficients for %d dimensions", len(coeffs), l)
	}
	sizes := space.Extents()
	var best RectPlan
	bestScore := math.Inf(1)
	for _, grid := range factorizations(int64(procs), l) {
		ext := make([]int64, l)
		feasible := true
		for k := range grid {
			if grid[k] > sizes[k] {
				feasible = false
				break
			}
			ext[k] = ceilDiv(sizes[k], grid[k])
		}
		if !feasible {
			continue
		}
		// Score: deviation of extent direction from coefficient
		// direction, comparing normalized log-ratios (scale-free). Zero
		// coefficients are unconstrained and excluded.
		score := 0.0
		var logs []float64
		var want []float64
		for k := range ext {
			if coeffs[k] <= 0 {
				continue
			}
			logs = append(logs, math.Log(float64(ext[k])))
			want = append(want, math.Log(coeffs[k]))
		}
		if len(logs) > 1 {
			ml, mw := mean(logs), mean(want)
			for i := range logs {
				d := (logs[i] - ml) - (want[i] - mw)
				score += d * d
			}
		}
		if score < bestScore {
			bestScore = score
			best = RectPlan{Grid: grid, Ext: ext}
		}
	}
	if best.Grid == nil {
		return RectPlan{}, fmt.Errorf("partition: no feasible grid")
	}
	best.Grid = cloneGrid(best.Grid)
	return best, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
