// Package verify is the differential verification layer: it checks the
// analytic machinery (footprint models, normal forms, lattice
// intersection) against exact enumeration and algebraic invariants, and
// checks served partition plans against the iteration space they claim to
// cover.
//
// The repo owns its own ground truth — footprint.ExactClassFootprint
// applies Definition 3 literally — so every model prediction is a testable
// claim. This package closes that loop three ways:
//
//   - CheckPlan validates a concrete plan: every iteration maps to a
//     processor in range, tiles are disjoint with full coverage and
//     bounded occupancy, and for small tiles the footprint model agrees
//     with enumeration within a documented tolerance.
//   - DiffNest (diff.go) generates the same comparison for an arbitrary
//     nest, and RandomNestSource (nestgen.go) feeds it randomized nests —
//     the differential harness the fuzz targets drive.
//   - CheckHNF / CheckSNF / CheckTheorem3 (invariants.go) assert the
//     algebraic contracts of the integer core.
//
// Failures increment the verify.checks / verify.failures telemetry
// counters, so a long-running service surfaces model drift without log
// scraping.
package verify

import (
	"fmt"
	"math"

	"looppart/internal/footprint"
	"looppart/internal/telemetry"
	"looppart/internal/tile"
)

// DefaultPointBudget bounds the number of iteration points CheckPlan will
// walk per check; spaces beyond it are sampled deterministically.
const DefaultPointBudget = 1 << 20

// DefaultTolerance is the documented relative tolerance for Approximate
// model predictions against exact enumeration *inside the model's domain*
// — tiles whose extents dominate the class's spread coefficients, the
// paper's working assumption. There the ≈ forms drop only lower-order
// boundary terms (Lemma 3 cross terms, Theorem 2 corner effects), which
// stay well under half the footprint. Outside the domain (tiny tiles,
// extents at or below the spread) the dropped terms are the same order as
// the footprint itself, and the comparison falls back to the sandwich
// invariants the paper guarantees unconditionally — see compareModelExact.
// Exact and Enumerated predictions get no tolerance at all.
const DefaultTolerance = 0.5

// CheckResult is the outcome of one named check.
type CheckResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Report aggregates check results.
type Report struct {
	Checks   []CheckResult `json:"checks"`
	Failures int           `json:"failures"`
}

// OK reports whether every check passed.
func (r *Report) OK() bool { return r.Failures == 0 }

// String renders the report compactly.
func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("verify: %d checks ok", len(r.Checks))
	}
	var first string
	for _, c := range r.Checks {
		if !c.OK {
			first = c.Name + ": " + c.Detail
			break
		}
	}
	return fmt.Sprintf("verify: %d/%d checks failed (%s)", r.Failures, len(r.Checks), first)
}

// add records a check outcome and bumps the telemetry counters.
func (r *Report) add(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, CheckResult{Name: name, OK: ok, Detail: detail})
	reg := telemetry.Active()
	reg.Counter("verify.checks").Add(1)
	if !ok {
		r.Failures++
		reg.Counter("verify.failures").Add(1)
	}
}

// Fail appends a failed check to the report (for callers that detect a
// problem before the standard checks can run, e.g. a plan that cannot be
// reconstructed from its serialized form).
func (r *Report) Fail(name, detail string) { r.add(name, false, detail) }

// Pass appends a passing check.
func (r *Report) Pass(name string) { r.add(name, true, "") }

// NotApplicable records a check that does not apply to the plan (e.g. the
// assignment of a policy-only plan): it passes, with the reason as detail.
func (r *Report) NotApplicable(name, reason string) { r.add(name, true, "not applicable: "+reason) }

// PlanCheck describes a concrete partition plan to validate.
type PlanCheck struct {
	// Analysis enables the footprint model-vs-enumeration check; nil skips
	// it (coverage checks still run).
	Analysis *footprint.Analysis
	// Space is the doall iteration space the plan claims to cover.
	Space tile.Bounds
	// Procs is the processor count the plan was built for.
	Procs int
	// Assign is the plan's iteration→processor map.
	Assign func(p []int64) int
	// Tile, when non-nil, is the plan's tile; enables the per-tile
	// occupancy and footprint checks. Slab plans leave it nil.
	Tile *tile.Tile

	// PointBudget caps the points walked per check (DefaultPointBudget
	// when 0). Tolerance is the Approximate-model relative tolerance
	// (DefaultTolerance when 0).
	PointBudget int64
	Tolerance   float64
}

func (pc *PlanCheck) budget() int64 {
	if pc.PointBudget > 0 {
		return pc.PointBudget
	}
	return DefaultPointBudget
}

func (pc *PlanCheck) tolerance() float64 {
	if pc.Tolerance > 0 {
		return pc.Tolerance
	}
	return DefaultTolerance
}

// CheckPlan runs the plan self-check and returns the report. It never
// panics: a panicking Assign (an iteration the plan cannot place) is
// reported as a failed coverage check.
func CheckPlan(pc PlanCheck) *Report {
	r := &Report{}
	if pc.Assign == nil {
		r.add("assignment", false, "plan has no iteration→processor map")
		return r
	}
	if pc.Procs <= 0 {
		r.add("assignment", false, fmt.Sprintf("non-positive processor count %d", pc.Procs))
		return r
	}
	pc.checkCoverage(r)
	if pc.Tile != nil {
		pc.checkTileOccupancy(r)
		if pc.Analysis != nil {
			pc.checkFootprintModel(r)
		}
	}
	return r
}

// forEachSampled walks the space — exhaustively within budget, otherwise a
// deterministic stride sample (every k-th point of the lexicographic scan)
// plus the corners. Returns the number of points visited and whether the
// walk was exhaustive.
func (pc *PlanCheck) forEachSampled(fn func(p []int64) bool) (visited int64, exhaustive bool) {
	total := pc.Space.Size()
	budget := pc.budget()
	stride := int64(1)
	exhaustive = true
	if total > budget {
		stride = (total + budget - 1) / budget
		exhaustive = false
	}
	var idx int64
	pc.Space.ForEach(func(p []int64) bool {
		take := idx%stride == 0
		idx++
		if !take {
			return true
		}
		visited++
		return fn(p)
	})
	return visited, exhaustive
}

// checkCoverage asserts every (sampled) iteration maps to a processor in
// [0, Procs), recovering from a panicking Assign.
func (pc *PlanCheck) checkCoverage(r *Report) {
	name := "coverage"
	var bad string
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				bad = fmt.Sprintf("assignment panicked: %v", rec)
			}
		}()
		pc.forEachSampled(func(p []int64) bool {
			proc := pc.Assign(p)
			if proc < 0 || proc >= pc.Procs {
				bad = fmt.Sprintf("iteration %v assigned to processor %d of %d", p, proc, pc.Procs)
				return false
			}
			return true
		})
	}()
	r.add(name, bad == "", bad)
}

// checkTileOccupancy asserts the tiling is a disjoint cover with bounded
// occupancy: every (sampled) iteration lands in exactly one tile (the
// coordinate map is a function, so disjointness holds by construction once
// each point resolves), no tile holds more points than the tile's point
// count, and the occupancies sum to the points visited.
func (pc *PlanCheck) checkTileOccupancy(r *Report) {
	name := "tile-occupancy"
	tl, err := tile.NewTiling(*pc.Tile, pc.Space.Lo)
	if err != nil {
		r.add(name, false, "tiling construction: "+err.Error())
		return
	}
	cap := pc.Tile.PointCount()
	occ := make(map[string]int64)
	var sum int64
	visited, _ := pc.forEachSampled(func(p []int64) bool {
		occ[coordKey(tl.Coord(p))]++
		sum++
		return true
	})
	if sum != visited {
		r.add(name, false, fmt.Sprintf("occupancy sum %d != %d points visited", sum, visited))
		return
	}
	for k, n := range occ {
		if n > cap {
			r.add(name, false, fmt.Sprintf("tile %s holds %d points, tile volume is %d", k, n, cap))
			return
		}
	}
	r.add(name, true, "")
}

// checkFootprintModel compares the model's footprint for the plan's tile
// against exact enumeration, class by class (the totals are sums of the
// per-class predictions, so per-class comparison is strictly stronger):
// Exact and Enumerated predictions must match to the point; Approximate
// predictions follow the domain-aware rules of compareModelExact. Tiles
// too large to enumerate are skipped (reported as passing with a detail
// note — the model is the only information).
func (pc *PlanCheck) checkFootprintModel(r *Report) {
	name := "footprint-model"
	t := *pc.Tile
	vol := t.PointCount()
	if vol > pc.budget() {
		r.add(name, true, fmt.Sprintf("tile volume %d above point budget, model unchecked", vol))
		return
	}
	for _, c := range pc.Analysis.Classes {
		var err error
		if t.IsRect() {
			_, err = DiffClassRect(c, t.Extents(), pc.tolerance())
		} else {
			_, err = DiffClassTile(c, t, pc.tolerance())
		}
		if err != nil {
			r.add(name, false, fmt.Sprintf("class %v: %v", c, err))
			return
		}
	}
	r.add(name, true, "")
}

// compareModelExact applies the documented disagreement rules between one
// class's model prediction and exact enumeration over a tile of vol
// points:
//
//   - A model of +Inf (overflow sentinel) for an enumerable tile fails.
//   - Exact and Enumerated predictions must equal enumeration.
//   - Approximate predictions with tight=true (the tile extents dominate
//     the spread coefficients — the paper's working assumption) must fall
//     within the relative tolerance of enumeration.
//   - Approximate predictions with tight=false are held to the sandwich
//     invariants that hold unconditionally: exact ≤ refs·vol (each
//     reference touches at most vol elements), exact ≥ vol when the
//     reduced reference matrix is square nonsingular (each reference then
//     touches exactly vol distinct elements), and model ≥ vol (every
//     model form is the volume term plus nonnegative spread terms).
func compareModelExact(c footprint.Class, model float64, ex footprint.Exactness, exact, vol float64, tight bool, tol float64) string {
	if math.IsInf(model, 1) {
		return "model footprint overflowed for an enumerable tile"
	}
	switch ex {
	case footprint.Exact, footprint.Enumerated:
		if model != exact {
			return fmt.Sprintf("%s model %v != exact %v", ex, model, exact)
		}
	default:
		if tight {
			denom := exact
			if denom < 1 {
				denom = 1
			}
			if rel := math.Abs(model-exact) / denom; rel > tol {
				return fmt.Sprintf("approximate model %v vs exact %v: relative error %.3f exceeds tolerance %.3f", model, exact, rel, tol)
			}
			return ""
		}
		refs := float64(c.NumRefs())
		if exact > refs*vol {
			return fmt.Sprintf("exact footprint %v exceeds the refs·volume bound %v·%v", exact, refs, vol)
		}
		gr := c.Reduced.G
		if gr.Rows() == gr.Cols() && gr.IsNonsingular() && exact < vol {
			return fmt.Sprintf("exact footprint %v below the tile volume %v with injective references", exact, vol)
		}
		if model < vol {
			return fmt.Sprintf("approximate model %v below the tile volume %v", model, vol)
		}
	}
	return ""
}

// rectForEach streams the origin-anchored rectangle with the given extents.
func rectForEach(ext []int64) func(yield func(p []int64) bool) {
	hi := make([]int64, len(ext))
	for k, e := range ext {
		hi[k] = e - 1
	}
	return tile.Bounds{Lo: make([]int64, len(ext)), Hi: hi}.ForEach
}

func coordKey(c []int64) string {
	out := make([]byte, 0, len(c)*8)
	for _, v := range c {
		out = fmt.Appendf(out, "%d,", v)
	}
	return string(out)
}
