package partition

import (
	"context"
	"fmt"
	"math"

	"looppart/internal/footprint"
	"looppart/internal/intmat"
	"looppart/internal/telemetry"
	"looppart/internal/tile"
)

// Communication lower bound for rectangular partitions, after the
// red/blue-pebble projective arguments of Dinh and Demmel ("Communication
// lower bounds for nested loops", arXiv:2003.00119), specialized to the
// paper's uniformly-intersecting reference classes.
//
// For a class whose reference matrix G is one-to-one and whose writes
// share a single offset, every array element has exactly one producing
// iteration, and each read reference r pins its consumers at a constant
// iteration-space offset δ_r (the lattice solution of δ·G = a_w − a_r).
// Under any rectangular processor grid, an element produced at x whose
// consumer x+δ_r falls in a different tile — and hence, because the grid
// has exactly P tiles, on a different processor — must cross the network
// at least once. Counting, per grid dimension, the produced elements
// whose consumer crosses a tile boundary along that dimension alone
// (staying interior along every other) yields pairwise-disjoint sets of
// must-move elements, so their sum is a valid per-grid lower bound, and
// the minimum over all grids of P lower-bounds what any rectangular plan
// of the same family can achieve.
//
// The bound is deliberately conservative: classes outside the one-to-one
// single-write-offset structure (or containing atomics) contribute zero,
// and each counted element is charged one word even when several remote
// processors consume it. Both slacks only lower the bound, never raise
// it, so bound ≤ measured words holds for every rectangular plan.

// LowerBoundResult is the communication lower bound for one nest.
type LowerBoundResult struct {
	// Words is min over processor grids of the per-grid must-move element
	// count: no rectangular plan of the standard grid family moves fewer
	// words per epoch.
	Words int64
	// Grid and Ext identify the comm-optimal grid attaining the minimum
	// (first in enumeration order among ties) and its tile extents.
	Grid []int64
	Ext  []int64
	// Classes counts the reference classes with the projective structure
	// the bound can charge; 0 means the bound is trivially zero.
	Classes int
}

// CommLowerBound computes the rectangular-partition communication lower
// bound for the analyzed nest over procs processors.
func CommLowerBound(a *footprint.Analysis, procs int) (*LowerBoundResult, error) {
	space := tile.BoundsOf(a.Nest)
	l := space.Dim()
	if l == 0 {
		return nil, fmt.Errorf("partition: nest has no doall loops")
	}
	if procs <= 0 {
		return nil, fmt.Errorf("partition: need at least one processor")
	}
	sizes := space.Extents()
	classes := lbClasses(a, l)
	grids := factorizations(int64(procs), l)

	best := &LowerBoundResult{Words: math.MaxInt64, Classes: len(classes)}
	for _, grid := range grids {
		ext, feasible := lbExtents(grid, sizes)
		if !feasible {
			continue
		}
		words, ok := lbGridWords(classes, sizes, ext)
		if !ok {
			// Arithmetic overflow in a count: the bound for this nest is
			// not trustworthy, report none rather than a wrong one.
			return nil, fmt.Errorf("partition: communication lower bound overflows for space %v", sizes)
		}
		if words < best.Words {
			best.Words, best.Grid, best.Ext = words, cloneGrid(grid), ext
		}
	}
	if best.Grid == nil {
		return nil, fmt.Errorf("partition: no feasible grid of %d processors for space %v", procs, sizes)
	}
	telemetry.Active().Counter("partition.lowerbound.computed").Add(1)
	return best, nil
}

// lbClass is one qualifying class, reduced to its consumer offsets.
type lbClass struct {
	deltas [][]int64 // per counted read reference: consumer − producer
}

// lbClasses extracts the classes the bound can charge. A class qualifies
// when G is one-to-one (unique producer per element), all writes share
// one offset, no member is atomic, and at least one read sits at a
// nonzero lattice offset from the write.
func lbClasses(a *footprint.Analysis, l int) []lbClass {
	var out []lbClass
	for _, c := range a.Classes {
		if c.G.Rows() != l || !intmat.IsOneToOne(c.G) {
			continue
		}
		var writeOff []int64
		qualified := true
		for _, r := range c.Refs {
			if r.Atomic {
				qualified = false
				break
			}
			if r.Writes == 0 {
				continue
			}
			if writeOff == nil {
				writeOff = r.A
			} else if !eqVec(writeOff, r.A) {
				qualified = false
				break
			}
		}
		if !qualified || writeOff == nil {
			continue
		}
		var deltas [][]int64
		for _, r := range c.Refs {
			if r.Reads == 0 {
				continue
			}
			diff := make([]int64, len(writeOff))
			for k := range diff {
				diff[k] = writeOff[k] - r.A[k]
			}
			d, ok, err := intmat.SolveIntLeftChecked(c.G, diff)
			if err != nil || !ok || allZero(d) {
				continue
			}
			deltas = append(deltas, d)
		}
		if len(deltas) > 0 {
			out = append(out, lbClass{deltas: deltas})
		}
	}
	return out
}

// lbExtents returns the tile extents the standard rect family induces for
// grid, or feasible=false when the grid oversubscribes a dimension (the
// rect search skips those candidates, so no served plan uses them).
func lbExtents(grid, sizes []int64) (ext []int64, feasible bool) {
	ext = make([]int64, len(grid))
	for k := range grid {
		if grid[k] > sizes[k] {
			return nil, false
		}
		ext[k] = ceilDiv(sizes[k], grid[k])
	}
	return ext, true
}

// lbGridWords is the per-grid bound: for each class and each dimension i,
// (max over refs of the 1-D boundary-crossing count along i) × (product
// over j≠i of producer positions interior to their chunk along j). ok is
// false on int64 overflow.
func lbGridWords(classes []lbClass, sizes, ext []int64) (words int64, ok bool) {
	l := len(sizes)
	spans := make([]int64, l)
	interior := make([]int64, l)
	for _, c := range classes {
		for j := 0; j < l; j++ {
			spans[j] = 0
			for _, d := range c.deltas {
				if s := abs64(d[j]); s > spans[j] {
					spans[j] = s
				}
			}
			interior[j] = interiorCount(sizes[j], ext[j], spans[j])
		}
		for i := 0; i < l; i++ {
			var maxCross int64
			for _, d := range c.deltas {
				if n := crossCount(sizes[i], ext[i], d[i]); n > maxCross {
					maxCross = n
				}
			}
			flow := maxCross
			for j := 0; j < l && flow > 0; j++ {
				if j == i {
					continue
				}
				if flow, ok = mulNoOvf(flow, interior[j]); !ok {
					return 0, false
				}
			}
			if words, ok = addNoOvf(words, flow); !ok {
				return 0, false
			}
		}
	}
	return words, true
}

// crossCount counts x in [0,N) with x+d in [0,N) and floor(x/E) ≠
// floor((x+d)/E): producers whose consumer at offset d lands in a
// different chunk of size E along this dimension.
func crossCount(n, e, d int64) int64 {
	if d < 0 {
		d = -d
	}
	if d == 0 || n <= 0 || e <= 0 {
		return 0
	}
	m := n - d // valid producers: x < m keeps the consumer in range
	if m <= 0 {
		return 0
	}
	if d >= e {
		return m // every in-range consumer skips at least one chunk
	}
	// Within each period of E the crossing residues are E−d … E−1.
	q, r := m/e, m%e
	extra := r - (e - d)
	if extra < 0 {
		extra = 0
	}
	return q*d + extra
}

// interiorCount counts x in [0,N) at distance ≥ s from both edges of
// their chunk of size E: positions whose consumers at any offset with
// magnitude ≤ s stay in the same chunk.
func interiorCount(n, e, s int64) int64 {
	if n <= 0 || e <= 0 {
		return 0
	}
	if s == 0 {
		return n
	}
	chunks := ceilDiv(n, e)
	last := n - (chunks-1)*e
	full := e - 2*s
	if full < 0 {
		full = 0
	}
	tail := last - 2*s
	if tail < 0 {
		tail = 0
	}
	return (chunks-1)*full + tail
}

func mulNoOvf(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

func addNoOvf(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

func eqVec(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allZero(v []int64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// lowerBoundFamily plans the comm-optimal rectangular grid: the rect tile
// whose grid attains the communication lower bound. When no class has
// chargeable structure (the bound is uniformly zero), it degrades to the
// footprint-optimal rectangle, so the family always produces a plan.
type lowerBoundFamily struct{}

func (lowerBoundFamily) Name() string { return "lowerbound" }

func (lowerBoundFamily) Optimize(ctx context.Context, a *footprint.Analysis, procs int) (*FamilyPlan, error) {
	lb, err := CommLowerBound(a, procs)
	if err != nil || lb.Classes == 0 {
		// No chargeable structure: every grid bounds at zero, so fall back
		// to the footprint-optimal rectangle rather than pick arbitrarily.
		return rectFamily{}.Optimize(ctx, a, procs)
	}
	return rectResult(lbRectPlan(a, lb), nil)
}

// TopK returns the rect family's ranked candidates with the comm-optimal
// tile appended as an extra contestant when it is not already among them
// — the tournament then measures whether trading model footprint for the
// lower-bound grid pays off.
func (lowerBoundFamily) TopK(a *footprint.Analysis, procs, k int, opt TopKOptions) ([]FamilyPlan, error) {
	out, err := rectFamily{}.TopK(a, procs, k, opt)
	if err != nil {
		return nil, err
	}
	lb, err := CommLowerBound(a, procs)
	if err != nil || lb.Classes == 0 {
		return out, nil
	}
	for _, p := range out {
		if eqVec(p.Tile.Extents(), lb.Ext) {
			return out, nil
		}
	}
	return append(out, lbRectPlan(a, lb).familyPlan()), nil
}

// lbRectPlan scores the comm-optimal grid with the standard rect model
// terms so the plan carries the same predictions any rect plan would.
func lbRectPlan(a *footprint.Analysis, lb *LowerBoundResult) RectPlan {
	ev := footprint.NewEvaluator(a)
	fp, tr, ex := ev.RectTotals(lb.Ext)
	recordEnumWork(nil, telemetry.Active(), ev)
	return RectPlan{
		Grid:               cloneGrid(lb.Grid),
		Ext:                lb.Ext,
		PredictedFootprint: fp,
		PredictedTraffic:   tr,
		Exactness:          ex,
	}
}

func init() {
	Register(lowerBoundFamily{})
}
