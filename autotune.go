package looppart

import (
	"context"

	"looppart/internal/autotune"
)

// AutotuneOptions parameterizes Program.Autotune.
type AutotuneOptions struct {
	// TopK is how many analytically ranked candidates contest the
	// tournament (default 4).
	TopK int
	// Fingerprint supplies the calibrated cost constants; zero value
	// means the paper's model defaults.
	Fingerprint autotune.Fingerprint
	// CacheLines bounds each simulated cache during the tournament
	// replays; 0 = infinite.
	CacheLines int
	// Exec additionally times each candidate on real goroutines
	// (reported, never used for selection).
	Exec bool
}

// Autotune partitions like Partition but arbitrates among the analytic
// search's top-K candidates by measured replay: the returned plan is the
// tournament winner, whose simulated miss count is never above the pure
// analytic plan's (candidate 0 is the argmin and ties break toward it).
// When ctx carries an obs.Trace, the tournament records a "tournament"
// span (candidates, winner rank, measured misses).
//
// Strategy handling is Partition's: the same symbolic-bounds guard and
// auto policy, so auto resolves to oblivious over symbolic bounds and to
// comm-free when a communication-free hyperplane exists (already zero
// communication — nothing for a measured tournament to improve). Only
// rect and skewed run tournaments; every other resolved strategy —
// lowerbound included, whose top-K ranks the rect argmin first rather
// than its own plan — gets the analytic plan with a nil Result.
func (pr *Program) Autotune(ctx context.Context, procs int, strategy Strategy, opts AutotuneOptions) (*Plan, *autotune.Result, error) {
	var res *autotune.Result
	plan, err := pr.dispatch(procs, strategy, func(s Strategy) (*Plan, error) {
		if s != Rect && s != Skewed {
			return pr.familyPlan(ctx, s, procs)
		}
		var err error
		res, err = autotune.RunTournamentCtx(ctx, pr.Analysis, autotune.TournamentOptions{
			Procs:       procs,
			Strategy:    s.String(),
			K:           opts.TopK,
			Fingerprint: opts.Fingerprint,
			CacheLines:  opts.CacheLines,
			Exec:        opts.Exec,
		})
		if err != nil {
			return nil, err
		}
		w := res.WinnerCandidate()
		plan, err := pr.tilePlan(s, procs, w.Tile, w.PredictedFootprint, 0)
		if err != nil {
			return nil, err
		}
		if s == Rect {
			// Keep the traffic prediction the analytic rect plan carries.
			plan.PredictedTraffic, _ = pr.Analysis.RectTotalTraffic(w.Tile.Extents())
		}
		return plan, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return plan, res, nil
}
