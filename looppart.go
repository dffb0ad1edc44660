// Package looppart implements automatic partitioning of parallel loops for
// cache-coherent multiprocessors, reproducing the framework of Agarwal,
// Kranz, and Natarajan (ICPP 1993 / MIT LCS TM-481).
//
// Given a perfectly nested doall loop whose array subscripts are affine
// functions of the loop indices, the library:
//
//   - classifies the references into uniformly intersecting sets and
//     computes their spread vectors (Definitions 4–8),
//   - models the cumulative data footprint of a candidate loop tile
//     (Equation 2, Theorems 1–5),
//   - derives the tile shape minimizing predicted communication, over
//     rectangular tiles, hyperparallelepiped (skewed) tiles, and
//     communication-free hyperplane partitions where they exist,
//   - validates predictions on a cache-coherent multiprocessor simulator
//     and executes partitioned nests for real on goroutines.
//
// Every Strategy but Auto names a partition.Family in the strategy
// registry — the paper's optimizers, its Figure 3 baselines, and the
// lower-bound and cache-oblivious plug-ins — and Auto is one policy over
// them. Partition and Autotune take a context first; a context carrying
// an obs.Trace collects the search spans.
//
// The typical flow:
//
//	prog, _ := looppart.Parse(src, nil)
//	plan, _ := prog.Partition(ctx, 64, looppart.Auto)
//	metrics, _ := plan.Simulate(looppart.SimOptions{})
//	fmt.Println(plan, metrics)
package looppart

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"looppart/internal/cachesim"
	"looppart/internal/datapart"
	"looppart/internal/exec"
	"looppart/internal/footprint"
	"looppart/internal/loopir"
	"looppart/internal/machine"
	"looppart/internal/partition"
	"looppart/internal/telemetry"
	"looppart/internal/tile"
)

// Program is a parsed and analyzed loop nest.
type Program struct {
	Nest     *loopir.Nest
	Analysis *footprint.Analysis
}

// Parse parses the loop-language source (see the README for the grammar;
// it follows the paper's Doall notation) and runs the reference analysis.
// Named loop-bound parameters (e.g. N) are resolved against params.
func Parse(src string, params map[string]int64) (*Program, error) {
	n, err := parseNest(src, params)
	if err != nil {
		return nil, err
	}
	return analyzeNest(n)
}

// parseNest is Parse's front half: the loop-language parse alone, which
// is all a plan-cache key needs.
func parseNest(src string, params map[string]int64) (*loopir.Nest, error) {
	sp := telemetry.Active().StartSpan("parse")
	defer sp.End()
	return loopir.Parse(src, params)
}

// analyzeNest is Parse's back half: the reference analysis of a parsed
// nest, which only a search (never a cache hit) needs.
func analyzeNest(n *loopir.Nest) (*Program, error) {
	reg := telemetry.Active()
	sp := reg.StartSpan("analyze")
	a, err := footprint.Analyze(n)
	sp.End()
	if err != nil {
		return nil, err
	}
	if reg != nil {
		// Decision trace: one event per uniformly intersecting class,
		// carrying the quantities the optimizers score from (G, spread,
		// coefficients).
		for i, c := range a.Classes {
			fields := map[string]any{
				"array":     c.Array,
				"refs":      c.NumRefs(),
				"G":         c.G.String(),
				"spread":    fmt.Sprint(c.Spread()),
				"cum":       fmt.Sprint(c.CumulativeSpread()),
				"invariant": c.FootprintInvariant(),
				"has_write": c.HasWrite(),
			}
			if u, _, ok := c.SpreadCoeffs(); ok {
				fields["coeffs"] = fmt.Sprint(u)
			}
			reg.Emit("analysis.class", fmt.Sprintf("class%d.%s", i, c.Array), fields)
		}
	}
	return &Program{Nest: n, Analysis: a}, nil
}

// MustParse is Parse panicking on error, for examples and tests.
func MustParse(src string, params map[string]int64) *Program {
	p, err := Parse(src, params)
	if err != nil {
		panic(err)
	}
	return p
}

// Strategy selects a partitioning algorithm.
type Strategy int

const (
	// Auto prefers a communication-free partition when one exists, and
	// otherwise the footprint-optimal rectangular partition; over symbolic
	// bounds it resolves to Oblivious.
	Auto Strategy = iota
	// Rect searches rectangular tiles (Theorem 4 objective).
	Rect
	// Skewed searches hyperparallelepiped tiles (Theorem 2 objective).
	Skewed
	// CommFree requires a communication-free hyperplane partition and
	// fails if none exists (the Ramanujam–Sadayappan class).
	CommFree
	// Rows, Columns, Blocks are the fixed naive baselines of Figure 3.
	Rows
	Columns
	Blocks
	// AbrahamHudak runs the baseline algorithm of [6] on its restricted
	// program class.
	AbrahamHudak
	// LowerBound plans the rectangular grid minimizing the Dinh–Demmel
	// per-grid communication lower bound, and reports the bound itself so
	// any plan's measured traffic can be scored against it.
	LowerBound
	// Oblivious emits a cache-oblivious recursive-bisection plan (PCOT
	// style): no tile extents are baked in, so the plan also covers nests
	// whose upper bounds are symbolic (`?N`) at planning time.
	Oblivious
)

// strategyNames is the one table naming the strategies: String,
// ParseStrategy, the CLI flag and the service's per-strategy counters all
// derive from it. Every name but "auto" is a partition.Family registry
// name.
var strategyNames = [...]string{
	Auto:         "auto",
	Rect:         "rect",
	Skewed:       "skewed",
	CommFree:     "comm-free",
	Rows:         "rows",
	Columns:      "columns",
	Blocks:       "blocks",
	AbrahamHudak: "abraham-hudak",
	LowerBound:   "lowerbound",
	Oblivious:    "oblivious",
}

func (s Strategy) String() string {
	if s < 0 || int(s) >= len(strategyNames) {
		return "unknown"
	}
	return strategyNames[s]
}

// ParseStrategy maps a strategy name (the CLI and HTTP spelling) to its
// Strategy value.
func ParseStrategy(name string) (Strategy, bool) {
	for s, n := range strategyNames {
		if n == name {
			return Strategy(s), true
		}
	}
	return 0, false
}

// Plan is a concrete partition: an iteration→processor assignment plus the
// model predictions that selected it.
type Plan struct {
	Program  *Program
	Strategy Strategy
	Procs    int

	// Tile is set for tile-shaped plans (rect and skewed).
	Tile *tile.Tile
	// Slab is set for communication-free hyperplane plans.
	Slab *partition.SlabPlan
	// Oblivious is set for cache-oblivious recursive-bisection plans.
	Oblivious *partition.ObliviousPlan

	// PredictedFootprint and PredictedTraffic are per-tile model values
	// (footprint only for tile plans).
	PredictedFootprint float64
	PredictedTraffic   float64

	assign func(p []int64) int
}

// Partition derives a plan for P processors with the given strategy.
// When ctx carries an obs.Trace, the strategy searches record their spans
// (search.rect / search.skewed with evaluated/pruned counts) into it.
func (pr *Program) Partition(ctx context.Context, procs int, strategy Strategy) (*Plan, error) {
	return pr.dispatch(procs, strategy, func(s Strategy) (*Plan, error) {
		return pr.familyPlan(ctx, s, procs)
	})
}

// dispatch is the one strategy dispatch behind Partition and Autotune:
// the symbolic-bounds guard, then the auto policy, then build for the
// resolved strategy.
//
// The auto policy: a nest with symbolic bounds gets the oblivious plan
// (the only one that needs no extents); otherwise a communication-free
// partition when one exists, and the footprint-optimal rectangles when
// none does.
func (pr *Program) dispatch(procs int, strategy Strategy, build func(Strategy) (*Plan, error)) (*Plan, error) {
	if procs < 1 {
		return nil, fmt.Errorf("looppart: procs must be >= 1, got %d", procs)
	}
	symbolic := pr.Nest.Symbolic()
	if symbolic && strategy != Oblivious && strategy != Auto {
		return nil, fmt.Errorf("looppart: nest has symbolic bounds; only the oblivious strategy can plan it")
	}
	if strategy != Auto {
		return build(strategy)
	}
	reg := telemetry.Active()
	if symbolic {
		reg.Emit("strategy.auto", "oblivious", map[string]any{
			"reason": "symbolic loop bounds; only cache-oblivious bisection needs no extents",
		})
		return build(Oblivious)
	}
	if plan, err := build(CommFree); err == nil {
		reg.Emit("strategy.auto", "comm-free", map[string]any{
			"reason": "a communication-free hyperplane partition exists",
		})
		return plan, nil
	}
	reg.Emit("strategy.auto", "rect", map[string]any{
		"reason": "no communication-free partition; falling back to footprint-optimal rectangles",
	})
	return build(Rect)
}

// familyPlan routes a resolved strategy through the partition.Family
// registry and lifts the family-independent result into a Plan.
func (pr *Program) familyPlan(ctx context.Context, strategy Strategy, procs int) (*Plan, error) {
	sp := telemetry.Active().StartSpan("partition." + strategy.String())
	sp.SetArg("procs", procs)
	defer sp.End()
	fam, ok := partition.Lookup(strategy.String())
	if !ok {
		return nil, fmt.Errorf("looppart: unknown strategy %d", strategy)
	}
	fp, err := fam.Optimize(ctx, pr.Analysis, procs)
	if err != nil {
		if errors.Is(err, partition.ErrNoCommFree) {
			return nil, fmt.Errorf("looppart: no communication-free partition exists for this nest")
		}
		return nil, err
	}
	return pr.lift(strategy, procs, fp)
}

// lift turns a family result — searched, or rebuilt from a served plan —
// into a Plan with its iteration→processor assignment. Oblivious plans
// over symbolic bounds get none: they are a split policy until the
// extents are known.
func (pr *Program) lift(strategy Strategy, procs int, fp *partition.FamilyPlan) (*Plan, error) {
	switch {
	case fp.Tile != nil:
		return pr.tilePlan(strategy, procs, *fp.Tile, fp.PredictedFootprint, fp.PredictedTraffic)
	case fp.Slab != nil:
		sp := fp.Slab
		plan := &Plan{Program: pr, Strategy: strategy, Procs: procs, Slab: sp}
		plan.assign = func(p []int64) int { return sp.SlabOf(p, procs) }
		return plan, nil
	case fp.Oblivious != nil:
		plan := &Plan{Program: pr, Strategy: strategy, Procs: procs, Oblivious: fp.Oblivious}
		if !fp.Oblivious.Symbolic {
			asg, err := fp.Oblivious.Assign(tile.BoundsOf(pr.Nest), procs)
			if err != nil {
				return nil, err
			}
			plan.assign = asg
		}
		return plan, nil
	default:
		return nil, fmt.Errorf("looppart: strategy %s produced an empty plan", strategy)
	}
}

func (pr *Program) tilePlan(s Strategy, procs int, t tile.Tile, fp, tr float64) (*Plan, error) {
	space := tile.BoundsOf(pr.Nest)
	tl, err := tile.NewTiling(t, space.Lo)
	if err != nil {
		return nil, err
	}
	asg, err := tile.Assign(tl, space, procs)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Program: pr, Strategy: s, Procs: procs, Tile: &t,
		PredictedFootprint: fp, PredictedTraffic: tr,
		assign: asg.ProcOf,
	}, nil
}

// Assign returns the processor executing the given doall iteration point.
// It panics for symbolic-bounds plans (Concrete reports which).
func (p *Plan) Assign(point []int64) int { return p.assign(point) }

// Concrete reports whether the plan carries an iteration→processor
// assignment. Oblivious plans over symbolic bounds do not: they are a
// split policy, resolvable only once the extents are known.
func (p *Plan) Concrete() bool { return p.assign != nil }

// errSymbolicPlan is the uniform refusal for replay/execution of a plan
// with no concrete assignment.
func (p *Plan) errSymbolicPlan() error {
	return fmt.Errorf("looppart: plan over symbolic bounds has no concrete assignment; supply concrete extents to simulate or execute")
}

// LoadImbalance returns max/mean iterations per processor (1.0 = perfect).
// Slab plans over skewed hyperplanes can be noticeably imbalanced — the
// cost of communication-freedom that Figure 3's rectangular partitions
// avoid.
func (p *Plan) LoadImbalance() float64 {
	counts := make([]int64, p.Procs)
	var total int64
	tile.BoundsOf(p.Program.Nest).ForEach(func(pt []int64) bool {
		counts[p.assign(pt)]++
		total++
		return true
	})
	if total == 0 {
		return 1
	}
	var max int64
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return float64(max) * float64(p.Procs) / float64(total)
}

// SimulateBlocked replays each processor's iterations in blocked subtile
// order (§2.2's small-cache regime: subdivide the tile, keep the aspect
// ratio) on finite caches, processor by processor. subExt gives the
// subtile extents; cacheLines bounds each cache (0 = infinite, where
// ordering cannot matter).
func (p *Plan) SimulateBlocked(subExt []int64, cacheLines int) (cachesim.Metrics, error) {
	if !p.Concrete() {
		return cachesim.Metrics{}, p.errSymbolicPlan()
	}
	space := tile.BoundsOf(p.Program.Nest)
	subTiling, err := tile.RectTilingFor(space, subExt)
	if err != nil {
		return cachesim.Metrics{}, err
	}
	// Group iterations per processor, ordered by subtile then
	// lexicographic within the subtile.
	type keyed struct {
		key   []int64
		point []int64
	}
	perProc := make([][]keyed, p.Procs)
	space.ForEach(func(pt []int64) bool {
		q := append([]int64(nil), pt...)
		proc := p.assign(q)
		perProc[proc] = append(perProc[proc], keyed{subTiling.Coord(q), q})
		return true
	})
	cfg := cachesim.DefaultConfig(p.Procs)
	cfg.CacheLines = cacheLines
	cfg.ExpectedData = p.expectedData()
	m, err := cachesim.New(cfg)
	if err != nil {
		return cachesim.Metrics{}, err
	}
	for proc, items := range perProc {
		sort.SliceStable(items, func(a, b int) bool {
			return lexLess(items[a].key, items[b].key)
		})
		pts := make([][]int64, len(items))
		for i, it := range items {
			pts[i] = it.point
		}
		if err := cachesim.ReplayPoints(m, p.Program.Nest, proc, pts, nil); err != nil {
			return cachesim.Metrics{}, err
		}
	}
	metrics := m.Finish()
	metrics.Publish(telemetry.Active(), "simblocked."+p.Strategy.String()+".")
	return metrics, nil
}

func lexLess(a, b []int64) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

func (p *Plan) String() string {
	switch {
	case p.Oblivious != nil:
		return fmt.Sprintf("%s plan for %d procs: %v", p.Strategy, p.Procs, p.Oblivious)
	case p.Slab != nil:
		return fmt.Sprintf("%s plan for %d procs: %v", p.Strategy, p.Procs, *p.Slab)
	case p.Tile != nil:
		return fmt.Sprintf("%s plan for %d procs: %v (predicted footprint %.1f)",
			p.Strategy, p.Procs, *p.Tile, p.PredictedFootprint)
	default:
		return fmt.Sprintf("%s plan for %d procs", p.Strategy, p.Procs)
	}
}

// SimOptions parameterizes uniform-memory simulation (Figure 2's model).
type SimOptions struct {
	// CacheLines bounds each cache; 0 = infinite (the paper's model).
	CacheLines int
}

// Simulate replays the nest on the cache-coherent simulator under this
// plan and returns the metrics. When telemetry is active, the metrics
// publish as sim.<strategy>.* counters alongside a simulation span.
func (p *Plan) Simulate(opts SimOptions) (cachesim.Metrics, error) {
	if !p.Concrete() {
		return cachesim.Metrics{}, p.errSymbolicPlan()
	}
	reg := telemetry.Active()
	sp := reg.StartSpan("simulate." + p.Strategy.String())
	defer sp.End()
	cfg := cachesim.DefaultConfig(p.Procs)
	cfg.CacheLines = opts.CacheLines
	cfg.ExpectedData = p.expectedData()
	m, err := cachesim.New(cfg)
	if err != nil {
		return cachesim.Metrics{}, err
	}
	if err := cachesim.RunNest(m, p.Program.Nest, p.assign); err != nil {
		return cachesim.Metrics{}, err
	}
	metrics := m.Finish()
	metrics.Publish(reg, "sim."+p.Strategy.String()+".")
	return metrics, nil
}

// expectedData predicts the number of distinct data a replay touches, for
// presizing the simulator: the per-processor footprint times the processor
// count bounds the distinct data from above (sharing only shrinks it).
func (p *Plan) expectedData() int {
	if p.PredictedFootprint <= 0 {
		return 0
	}
	n := p.PredictedFootprint * float64(p.Procs)
	const maxHint = 1 << 20 // don't let a mis-prediction balloon memory
	if n > maxHint {
		return maxHint
	}
	return int(n)
}

// MeshOptions parameterizes distributed-memory simulation (§4's Alewife
// model).
type MeshOptions struct {
	// Aligned selects the data-partitioning-and-alignment placement;
	// false uses hashed (round-robin) placement.
	Aligned bool
	// CacheLines bounds each cache; 0 = infinite.
	CacheLines int
}

// SimulateMesh replays the nest on a 2-D mesh with distributed memory,
// homing data by alignment or hashing, and returns the metrics (including
// Local/RemoteMisses and HopTraffic).
func (p *Plan) SimulateMesh(opts MeshOptions) (cachesim.Metrics, error) {
	if p.Tile == nil {
		return cachesim.Metrics{}, fmt.Errorf("looppart: mesh simulation requires a tile plan")
	}
	mesh, err := machine.SquarishMesh(p.Procs)
	if err != nil {
		return cachesim.Metrics{}, err
	}
	space := tile.BoundsOf(p.Program.Nest)
	tl, err := tile.NewTiling(*p.Tile, space.Lo)
	if err != nil {
		return cachesim.Metrics{}, err
	}
	asg, err := tile.Assign(tl, space, p.Procs)
	if err != nil {
		return cachesim.Metrics{}, err
	}
	place := machine.RoundRobin(p.Procs)
	if opts.Aligned {
		al, err := datapart.NewAligner(p.Program.Analysis, asg, place)
		if err != nil {
			return cachesim.Metrics{}, err
		}
		place = al.Placement()
	}
	cost := machine.DefaultCostModel()
	cfg := cachesim.DefaultConfig(p.Procs)
	cfg.CacheLines = opts.CacheLines
	cfg.ExpectedData = p.expectedData()
	cfg.MissCost = func(proc int, datum string, atomic bool) (float64, int64) {
		arr, idx, err := ParseDatum(datum)
		if err != nil {
			return cost.RemoteBase, int64(mesh.MaxHops())
		}
		return cost.MissCost(mesh, proc, place(arr, idx), atomic)
	}
	m, err := cachesim.New(cfg)
	if err != nil {
		return cachesim.Metrics{}, err
	}
	if err := cachesim.RunNest(m, p.Program.Nest, p.assign); err != nil {
		return cachesim.Metrics{}, err
	}
	metrics := m.Finish()
	placement := "hashed"
	if opts.Aligned {
		placement = "aligned"
	}
	metrics.Publish(telemetry.Active(), "mesh."+p.Strategy.String()+"."+placement+".")
	return metrics, nil
}

// Execute runs the nest for real on goroutines (one per processor) over a
// fresh store sized for the nest, and returns the store.
func (p *Plan) Execute() (exec.Store, error) {
	st, err := exec.StoreFor(p.Program.Nest)
	if err != nil {
		return nil, err
	}
	if err := p.ExecuteOn(st); err != nil {
		return nil, err
	}
	return st, nil
}

// ExecuteOn runs the nest under the plan over a caller-provided store.
func (p *Plan) ExecuteOn(st exec.Store) error {
	if !p.Concrete() {
		return p.errSymbolicPlan()
	}
	reg := telemetry.Active()
	sp := reg.StartSpan("execute." + p.Strategy.String())
	defer sp.End()
	return exec.RunParallel(p.Program.Nest, st, p.Procs, p.assign)
}

// ParseDatum splits a simulator datum key "A[1,-2]" into its array name
// and index tuple.
func ParseDatum(datum string) (string, []int64, error) {
	open := -1
	for i := 0; i < len(datum); i++ {
		if datum[i] == '[' {
			open = i
			break
		}
	}
	if open < 0 || len(datum) == 0 || datum[len(datum)-1] != ']' {
		return "", nil, fmt.Errorf("looppart: malformed datum key %q", datum)
	}
	name := datum[:open]
	body := datum[open+1 : len(datum)-1]
	var idx []int64
	v, sign := int64(0), int64(1)
	started := false
	for i := 0; i < len(body); i++ {
		switch c := body[i]; {
		case c == ',':
			if !started {
				return "", nil, fmt.Errorf("looppart: malformed datum key %q", datum)
			}
			idx = append(idx, sign*v)
			v, sign, started = 0, 1, false
		case c == '-':
			sign = -1
		case c >= '0' && c <= '9':
			v = v*10 + int64(c-'0')
			started = true
		default:
			return "", nil, fmt.Errorf("looppart: malformed datum key %q", datum)
		}
	}
	if !started {
		return "", nil, fmt.Errorf("looppart: malformed datum key %q", datum)
	}
	idx = append(idx, sign*v)
	return name, idx, nil
}
