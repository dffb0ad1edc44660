package looppart

import (
	"context"

	"looppart/internal/commsets"
	"looppart/internal/msgexec"
	"looppart/internal/tile"
)

// CommSets computes the plan's exact per-tile communication sets: for
// every uniformly intersecting reference class, which elements each
// processor produces that other processors consume, with exact counts
// (internal/commsets). Materialize in opts to also get the element
// lists (needed to drive the message-passing executor). When ctx carries
// an obs.Trace, the analysis records a "commsets.analyze" span.
func (p *Plan) CommSets(ctx context.Context, opts commsets.Options) (*commsets.Analysis, error) {
	if !p.Concrete() {
		return nil, p.errSymbolicPlan()
	}
	spec := commsets.Spec{
		Analysis: p.Program.Analysis,
		Space:    tile.BoundsOf(p.Program.Nest),
		Procs:    p.Procs,
		Tile:     p.Tile,
		Assign:   p.assign,
	}
	return commsets.ComputeCtx(ctx, spec, opts)
}

// CommSummary is the compact digest of CommSets that the planning
// service attaches to PlanResult when communication certification is
// enabled.
func (p *Plan) CommSummary(ctx context.Context) (*commsets.Summary, error) {
	a, err := p.CommSets(ctx, commsets.Options{})
	if err != nil {
		return nil, err
	}
	return a.Summary(), nil
}

// ExecuteMessagePassing runs the plan under the explicit
// message-passing executor (internal/msgexec): private per-processor
// stores, bulk-synchronous epochs, and exchanges that move exactly the
// transfer sets CommSets predicts. The report carries the measured word
// count (Run errors if it disagrees with the prediction) and whether
// the final state was verified against the sequential execution.
func (p *Plan) ExecuteMessagePassing() (*msgexec.Report, error) {
	comm, err := p.CommSets(context.Background(), commsets.Options{Materialize: true})
	if err != nil {
		return nil, err
	}
	return msgexec.Run(p.Program.Nest, p.assign, comm)
}
