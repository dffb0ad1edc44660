package partition

import (
	"fmt"
	"sync/atomic"

	"looppart/internal/footprint"
	"looppart/internal/intmat"
	"looppart/internal/telemetry"
	"looppart/internal/tile"
)

// Top-K candidate surfacing for the autotune tournament: instead of the
// argmin alone, return the K best-ranked plans of a search so a measured
// replay can arbitrate among them. The ranking is the exact sequential
// ordering the argmin searches use (better() for rectangles, strict
// footprint improvement in enumeration order for skews), applied as a
// repeated deterministic selection over the fully evaluated candidate set
// — so result[0] is always bit-identical to the corresponding argmin
// search, whatever the worker-pool size.
//
// Lower-bound pruning is disabled here on purpose: pruning is admissible
// only against the global minimum, and a candidate dominated by the best
// plan can still be a legitimate runner-up.

// OptimizeRectTopK returns up to k rectangular plans ranked best-first by
// the sequential comparison (footprint, then grid balance, then
// lexicographic grid). Plans are deduplicated by tile extents: two grids
// inducing the same extents yield identical tilings, hence identical
// measurements, so only the better-ranked one is kept. result[0] equals
// the OptimizeRect plan.
func OptimizeRectTopK(a *footprint.Analysis, procs, k int) ([]RectPlan, error) {
	space := tile.BoundsOf(a.Nest)
	l := space.Dim()
	if l == 0 {
		return nil, fmt.Errorf("partition: nest has no doall loops")
	}
	if procs <= 0 {
		return nil, fmt.Errorf("partition: need at least one processor")
	}
	if k < 1 {
		k = 1
	}
	sizes := space.Extents()
	grids := factorizations(int64(procs), l)
	ev := footprint.NewEvaluator(a)
	defer recordEnumWork(nil, telemetry.Active(), ev)

	type rectCand struct {
		ext   []int64
		fp    float64
		ex    footprint.Exactness
		state uint8
	}
	cands := make([]rectCand, len(grids))
	var evaluated atomic.Int64
	forEachCandidate(len(grids), func(i int) {
		c := &cands[i]
		grid := grids[i]
		ext := make([]int64, l)
		for d := range grid {
			if grid[d] > sizes[d] {
				return
			}
			ext[d] = ceilDiv(sizes[d], grid[d])
		}
		c.ext = ext
		c.fp, c.ex = ev.RectTotalFootprint(ext)
		c.state = candEvaluated
		evaluated.Add(1)
	})
	reg := telemetry.Active()
	reg.Counter("partition.rect.topk.candidates").Add(evaluated.Load())

	// Repeated deterministic selection: each round folds the remaining
	// candidates in enumeration order with better(), exactly the argmin
	// reduction, then retires the winner.
	taken := make([]bool, len(cands))
	seen := map[string]bool{}
	var out []RectPlan
	for len(out) < k {
		best, found := -1, false
		var bestPlan RectPlan
		for i := range cands {
			if taken[i] || cands[i].state != candEvaluated {
				continue
			}
			cand := RectPlan{Grid: grids[i], Ext: cands[i].ext,
				PredictedFootprint: cands[i].fp, Exactness: cands[i].ex}
			if !found || better(cand, bestPlan) {
				best, bestPlan, found = i, cand, true
			}
		}
		if !found {
			break
		}
		taken[best] = true
		key := fmt.Sprint(bestPlan.Ext)
		if seen[key] {
			continue // same extents as a better-ranked plan: same tiling
		}
		seen[key] = true
		bestPlan.Grid = cloneGrid(bestPlan.Grid)
		_, bestPlan.PredictedTraffic, _ = ev.RectTotals(bestPlan.Ext)
		out = append(out, bestPlan)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("partition: no feasible grid of %d processors for space %v", procs, sizes)
	}
	return out, nil
}

// OptimizeSkewTopK returns up to k hyperparallelepiped plans ranked
// best-first by predicted footprint (ties to the earlier candidate in
// enumeration order, the sequential search's tie-break). Plans are
// deduplicated by the tile matrix L. result[0] equals the OptimizeSkew
// plan.
func OptimizeSkewTopK(a *footprint.Analysis, procs int, maxSkew int64, k int) ([]SkewPlan, error) {
	space := tile.BoundsOf(a.Nest)
	l := space.Dim()
	if l == 0 {
		return nil, fmt.Errorf("partition: nest has no doall loops")
	}
	vol := space.Size() / int64(procs)
	if vol == 0 {
		return nil, fmt.Errorf("partition: more processors than iterations")
	}
	if k < 1 {
		k = 1
	}
	exts := volumeFactorizations(vol, l)
	skews := unimodularSkews(l, maxSkew)
	ev := footprint.NewEvaluator(a)
	defer recordEnumWork(nil, telemetry.Active(), ev)

	terms := make([][]skewClassTerms, len(skews))
	forEachCandidate(len(skews), func(si int) {
		terms[si] = skewTermsFor(ev, skews[si])
	})
	allClosed := true
	for _, t := range terms[0] {
		if !t.closed {
			allClosed = false
		}
	}

	ns := len(skews)
	n := len(exts) * ns
	type skewCand struct {
		fp float64
		ex footprint.Exactness
	}
	cands := make([]skewCand, n)
	forEachCandidate(n, func(i int) {
		ext := exts[i/ns]
		si := i % ns
		c := &cands[i]
		if allClosed {
			total := 0.0
			for _, t := range terms[si] {
				total += float64(vol * t.volCoeff)
				for d, rc := range t.rowCoeff {
					total += float64((vol / ext[d]) * rc)
				}
			}
			c.fp, c.ex = total, footprint.Approximate
			return
		}
		t := tile.Tile{L: intmat.Diag(ext...).Mul(skews[si])}
		c.fp, c.ex = ev.TileTotalFootprint(t)
	})
	reg := telemetry.Active()
	reg.Counter("partition.skew.topk.candidates").Add(int64(n))

	bestRect := -1.0
	for i := 0; i < len(exts); i++ {
		if fp := cands[i*ns].fp; bestRect < 0 || fp < bestRect {
			bestRect = fp
		}
	}

	taken := make([]bool, n)
	seen := map[string]bool{}
	var out []SkewPlan
	for len(out) < k {
		best := -1
		for i := range cands {
			// Strict improvement in enumeration order: identical to the
			// sequential argmin scan's running-minimum chain.
			if !taken[i] {
				if best < 0 || cands[i].fp < cands[best].fp {
					best = i
				}
			}
		}
		if best < 0 {
			break
		}
		taken[best] = true
		t := tile.Tile{L: intmat.Diag(exts[best/ns]...).Mul(skews[best%ns])}
		key := t.L.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, SkewPlan{
			Tile:               t,
			PredictedFootprint: cands[best].fp,
			Exactness:          cands[best].ex,
			RectBaseline:       bestRect,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("partition: no feasible tile of volume %d", vol)
	}
	return out, nil
}
