package partition

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"looppart/internal/footprint"
	"looppart/internal/tile"
)

// The strategy registry turns the package's optimizers into pluggable
// families behind one interface: a caller resolves a family by name and
// asks it for the argmin plan (Optimize) or the K best-ranked candidates
// for a measured tournament (TopK). The built-in families — rect, skewed,
// comm-free and the Figure 3 baselines (rows, columns, blocks,
// abraham-hudak) — register at init; lowerbound and oblivious plug in the
// same way, so every strategy is a registry name and no caller keeps a
// switch over them.
//
// Registration is init-time only: the map is read-only once the program
// is serving, so lookups take no lock.

// ErrNoCommFree reports that a family requiring a communication-free
// hyperplane partition found none for the nest.
var ErrNoCommFree = errors.New("partition: no communication-free partition exists")

// ErrNoTopK reports that a family has no candidate ranking to offer a
// tournament (e.g. comm-free: the partition either exists or it does not;
// there is no K-best spectrum to measure).
var ErrNoTopK = errors.New("partition: family has no top-K candidate ranking")

// FamilyPlan is the family-independent result shape: exactly one of
// Tile, Slab, or Oblivious is set, plus the model predictions that
// selected the plan.
type FamilyPlan struct {
	Tile      *tile.Tile
	Slab      *SlabPlan
	Oblivious *ObliviousPlan

	// PredictedFootprint and PredictedTraffic are per-tile model values
	// (tile plans only; slab plans communicate nothing by construction).
	PredictedFootprint float64
	PredictedTraffic   float64
	Exactness          footprint.Exactness
}

// TopKOptions carries the tournament-facing knobs a family may honor.
type TopKOptions struct {
	// MaxSkew bounds the off-diagonal shear entries for families that
	// enumerate unimodular skews; <= 0 means the family default (3).
	MaxSkew int64
}

// Family is one partitioning strategy: a named search over a plan family.
type Family interface {
	// Name returns the registry name ("rect", "skewed", ...).
	Name() string
	// Optimize returns the family's best plan for procs processors.
	Optimize(ctx context.Context, a *footprint.Analysis, procs int) (*FamilyPlan, error)
	// TopK returns up to k plans ranked best-first for tournament
	// arbitration; result[0] must equal the Optimize plan. Families with
	// no candidate spectrum return ErrNoTopK.
	TopK(a *footprint.Analysis, procs, k int, opt TopKOptions) ([]FamilyPlan, error)
}

var families = map[string]Family{}

// Register adds f to the registry under f.Name(). It panics on a
// duplicate name: families register from init functions, and a silent
// overwrite would hide a wiring bug. Not safe for concurrent use —
// registration is init-time only.
func Register(f Family) {
	name := f.Name()
	if _, dup := families[name]; dup {
		panic(fmt.Sprintf("partition: duplicate strategy family %q", name))
	}
	families[name] = f
}

// Lookup resolves a registered family by name.
func Lookup(name string) (Family, bool) {
	f, ok := families[name]
	return f, ok
}

// Families returns the registered family names, sorted.
func Families() []string {
	out := make([]string, 0, len(families))
	for name := range families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register(rectFamily{})
	Register(skewFamily{})
	Register(commFreeFamily{})
	for _, shape := range []NaiveShape{ByRows, ByColumns, ByBlocks} {
		Register(naiveFamily{shape: shape})
	}
	Register(abrahamHudakFamily{})
}

// familyPlan lifts a rectangular-grid plan into the family result shape.
func (p RectPlan) familyPlan() FamilyPlan {
	t := p.Tile()
	return FamilyPlan{
		Tile:               &t,
		PredictedFootprint: p.PredictedFootprint,
		PredictedTraffic:   p.PredictedTraffic,
		Exactness:          p.Exactness,
	}
}

// rectResult is familyPlan over an optimizer's (plan, error) return.
func rectResult(p RectPlan, err error) (*FamilyPlan, error) {
	if err != nil {
		return nil, err
	}
	fp := p.familyPlan()
	return &fp, nil
}

// noTopK is embedded by the families with no candidate spectrum.
type noTopK struct{}

func (noTopK) TopK(*footprint.Analysis, int, int, TopKOptions) ([]FamilyPlan, error) {
	return nil, ErrNoTopK
}

// rectFamily wraps the rectangular-tile search (Theorem 4 objective).
type rectFamily struct{}

func (rectFamily) Name() string { return "rect" }

func (rectFamily) Optimize(ctx context.Context, a *footprint.Analysis, procs int) (*FamilyPlan, error) {
	return rectResult(OptimizeRect(ctx, a, procs))
}

func (rectFamily) TopK(a *footprint.Analysis, procs, k int, _ TopKOptions) ([]FamilyPlan, error) {
	plans, err := OptimizeRectTopK(a, procs, k)
	if err != nil {
		return nil, err
	}
	out := make([]FamilyPlan, len(plans))
	for i, p := range plans {
		out[i] = p.familyPlan()
	}
	return out, nil
}

// skewFamily wraps the hyperparallelepiped search (Theorem 2 objective).
type skewFamily struct{}

// defaultMaxSkew bounds the shear enumeration when the caller does not
// say otherwise; it matches the historical top-level default.
const defaultMaxSkew = 3

func (skewFamily) Name() string { return "skewed" }

// familyPlan lifts a skewed-tile plan into the family result shape.
func (p SkewPlan) familyPlan() FamilyPlan {
	t := p.Tile
	return FamilyPlan{Tile: &t, PredictedFootprint: p.PredictedFootprint, Exactness: p.Exactness}
}

func (skewFamily) Optimize(ctx context.Context, a *footprint.Analysis, procs int) (*FamilyPlan, error) {
	sp, err := OptimizeSkew(ctx, a, procs, defaultMaxSkew)
	if err != nil {
		return nil, err
	}
	fp := sp.familyPlan()
	return &fp, nil
}

func (skewFamily) TopK(a *footprint.Analysis, procs, k int, opt TopKOptions) ([]FamilyPlan, error) {
	maxSkew := opt.MaxSkew
	if maxSkew <= 0 {
		maxSkew = defaultMaxSkew
	}
	plans, err := OptimizeSkewTopK(a, procs, maxSkew, k)
	if err != nil {
		return nil, err
	}
	out := make([]FamilyPlan, len(plans))
	for i, p := range plans {
		out[i] = p.familyPlan()
	}
	return out, nil
}

// commFreeFamily wraps the communication-free hyperplane finder (the
// Ramanujam–Sadayappan class).
type commFreeFamily struct{ noTopK }

func (commFreeFamily) Name() string { return "comm-free" }

func (commFreeFamily) Optimize(_ context.Context, a *footprint.Analysis, procs int) (*FamilyPlan, error) {
	sp, ok := FindCommFree(a, procs, true)
	if !ok {
		return nil, ErrNoCommFree
	}
	return &FamilyPlan{Slab: &sp}, nil
}

// naiveFamily is one of Figure 3's fixed baseline shapes (rows, columns,
// blocks), registered under the shape's name.
type naiveFamily struct {
	noTopK
	shape NaiveShape
}

func (f naiveFamily) Name() string { return f.shape.String() }

func (f naiveFamily) Optimize(_ context.Context, a *footprint.Analysis, procs int) (*FamilyPlan, error) {
	return rectResult(Naive(a, procs, f.shape))
}

// abrahamHudakFamily runs the baseline algorithm of [6] on its
// restricted program class.
type abrahamHudakFamily struct{ noTopK }

func (abrahamHudakFamily) Name() string { return "abraham-hudak" }

func (abrahamHudakFamily) Optimize(_ context.Context, a *footprint.Analysis, procs int) (*FamilyPlan, error) {
	return rectResult(AbrahamHudak(a, procs))
}
