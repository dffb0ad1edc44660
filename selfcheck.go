package looppart

import (
	"fmt"

	"looppart/internal/intmat"
	"looppart/internal/partition"
	"looppart/internal/tile"
	"looppart/internal/verify"
)

// SelfCheck validates the plan against the iteration space it claims to
// cover: every iteration maps to a processor in range, the tiling is a
// disjoint cover with bounded occupancy, and for enumerable tiles the
// footprint model agrees with exact enumeration under the documented
// rules (verify.DefaultTolerance). Large spaces are sampled
// deterministically; the check never panics. Outcomes feed the
// verify.checks / verify.failures telemetry counters.
//
// An oblivious policy over a symbolic nest has no assignment to check
// until the extents are known, so its assignment check is recorded as not
// applicable; any other plan without an assignment fails.
func (p *Plan) SelfCheck() *verify.Report {
	if !p.Concrete() && p.Oblivious != nil && p.Oblivious.Symbolic && p.Program.Nest.Symbolic() {
		rep := &verify.Report{}
		rep.NotApplicable("assignment", "symbolic oblivious policy; no iteration→processor map until the extents are known")
		return rep
	}
	return verify.CheckPlan(verify.PlanCheck{
		Analysis: p.Program.Analysis,
		Space:    tile.BoundsOf(p.Program.Nest),
		Procs:    p.Procs,
		Assign:   p.assign,
		Tile:     p.Tile,
	})
}

// PlanFromResult reconstructs an executable Plan from a served PlanResult
// — the inverse of the service's encoding. The reconstruction uses only
// the serialized fields (kind, tile extents or matrix, slab normal and
// width, split order), so checking the reconstructed plan checks what was
// actually served, not what the search happened to compute. The rebuilt
// family result is lifted into a Plan exactly as a searched one is.
func (pr *Program) PlanFromResult(res *PlanResult) (*Plan, error) {
	strategy, ok := ParseStrategy(res.Resolved)
	if !ok {
		return nil, fmt.Errorf("looppart: served plan has unknown resolved strategy %q", res.Resolved)
	}
	if res.Procs < 1 {
		return nil, fmt.Errorf("looppart: served plan has non-positive processor count %d", res.Procs)
	}
	fp, err := pr.familyPlanFromResult(res)
	if err != nil {
		return nil, err
	}
	return pr.lift(strategy, res.Procs, fp)
}

// familyPlanFromResult rebuilds the family result a served plan encodes.
func (pr *Program) familyPlanFromResult(res *PlanResult) (*partition.FamilyPlan, error) {
	switch res.Kind {
	case "slab":
		space := tile.BoundsOf(pr.Nest)
		sp, err := partition.SlabPlanFor(res.SlabNormal, res.SlabWidth, res.SlabCommFree, space.Lo, space.Hi)
		if err != nil {
			return nil, err
		}
		return &partition.FamilyPlan{Slab: &sp}, nil
	case "tile":
		var t tile.Tile
		switch {
		case len(res.TileMatrix) > 0:
			l := intmat.FromRows(res.TileMatrix)
			if l.Rows() != l.Cols() || !l.IsNonsingular() {
				return nil, fmt.Errorf("looppart: served tile matrix %v is not square nonsingular", res.TileMatrix)
			}
			t = tile.Parallelepiped(l)
		case len(res.TileExtents) > 0:
			for _, e := range res.TileExtents {
				if e <= 0 {
					return nil, fmt.Errorf("looppart: served tile has non-positive extent %d", e)
				}
			}
			t = tile.Rect(res.TileExtents...)
		default:
			return nil, fmt.Errorf("looppart: served tile plan has neither extents nor matrix")
		}
		return &partition.FamilyPlan{Tile: &t, PredictedFootprint: res.PredictedFootprint, PredictedTraffic: res.PredictedTraffic}, nil
	case "oblivious":
		// The bisection policy is a deterministic function of the analysis
		// and the processor count, so re-derive it and require the served
		// split order (the policy's serialized fingerprint) to match — a
		// mismatch means the source no longer produces the served plan.
		op, err := partition.OptimizeOblivious(pr.Analysis, res.Procs)
		if err != nil {
			return nil, err
		}
		if len(op.Order) != len(res.ObliviousOrder) {
			return nil, fmt.Errorf("looppart: served split order %v has wrong rank for this nest", res.ObliviousOrder)
		}
		for i, d := range op.Order {
			if res.ObliviousOrder[i] != d {
				return nil, fmt.Errorf("looppart: served split order %v no longer matches the nest's derived order %v", res.ObliviousOrder, op.Order)
			}
		}
		if op.Symbolic != res.ObliviousSymbolic {
			return nil, fmt.Errorf("looppart: served plan symbolic=%v but the nest derives symbolic=%v", res.ObliviousSymbolic, op.Symbolic)
		}
		return &partition.FamilyPlan{Oblivious: op}, nil
	default:
		return nil, fmt.Errorf("looppart: served plan has unknown kind %q", res.Kind)
	}
}

// Verify re-validates a served plan: it reconstructs the plan from the
// serialized result alone, checks that the reconstruction renders
// byte-identically to the served Rendered string (so the serialized
// fields really determine the plan), and runs the full SelfCheck. The
// request must be the one that produced the result (its source is
// re-parsed to recover the iteration space and reference analysis).
func (s *Service) Verify(req PlanRequest, res *PlanResult) *verify.Report {
	rep := &verify.Report{}
	prog, procs, _, err := s.prepareProgram(req)
	if err != nil {
		rep.Fail("reconstruct", "request no longer parses: "+err.Error())
		return rep
	}
	if procs != res.Procs {
		rep.Fail("reconstruct", fmt.Sprintf("request procs %d != served procs %d", procs, res.Procs))
		return rep
	}
	plan, err := prog.PlanFromResult(res)
	if err != nil {
		rep.Fail("reconstruct", err.Error())
		return rep
	}
	rep.Pass("reconstruct")
	if got := plan.String(); got != res.Rendered {
		rep.Fail("rendered", fmt.Sprintf("reconstructed plan renders %q, served plan rendered %q", got, res.Rendered))
	} else {
		rep.Pass("rendered")
	}
	sc := plan.SelfCheck()
	rep.Checks = append(rep.Checks, sc.Checks...)
	rep.Failures += sc.Failures
	return rep
}
