package footprint

import (
	"math"
	"math/big"
	"sync/atomic"

	"looppart/internal/intmat"
	"looppart/internal/lattice"
	"looppart/internal/tile"
)

// Evaluator scores candidate tiles against an Analysis with the per-class
// shape-independent terms hoisted out of the per-candidate loop. The
// searches in internal/partition evaluate hundreds to thousands of
// candidate shapes against the same Analysis; everything that does not
// depend on the tile — the class invariance test, the |det G'| volume
// factor, the spread coefficients uᵢ (a rational linear solve per class),
// and the projected spread â' — is computed once here instead of once per
// candidate.
//
// The evaluator is a pure accelerator: RectTotalFootprint and
// TileTotalFootprint return bit-identical values to the Analysis methods
// of the same name (same class order, same arithmetic, same exactness
// fold). It is safe for concurrent use: all state is written during
// construction and only read afterwards, except the enumeration work
// counter, which is atomic.
type Evaluator struct {
	a       *Analysis
	classes []classEval

	// enumPoints counts the iteration points the exact-enumeration
	// fallbacks walked for this evaluator's queries (one add per query).
	enumPoints atomic.Int64

	// sumDetGr is Σ |det G'| over square classes — the coefficient of the
	// admissible volume lower bound for hyperparallelepiped tiles.
	sumDetGr float64
	// numSquare counts classes with square nonsingular reduced G — the
	// coefficient of the rectangular volume lower bound.
	numSquare int
}

// classEval caches one class's shape-independent terms.
type classEval struct {
	c      *Class
	square bool // reduced G square and nonsingular

	// u are the spread coefficients |uᵢ| of Theorem 4 (â' = u·G'), valid
	// when uOK; solving them per candidate is the dominant avoidable cost
	// of the rectangular search.
	u   []float64
	uOK bool

	// pairU is the integral translation decomposition of a two-reference
	// class (Proposition 1 / Lemma 3), rounded to int64 as RectFootprint
	// does; nil when the class has ≠ 2 refs or the solution is not
	// integral.
	pairU []int64

	// gr is the reduced reference matrix, projSpread the projected spread
	// â' (Theorem 2's replacement row), detGr = |det G'|.
	gr         intmat.Mat
	projSpread []int64
	detGr      float64
}

// NewEvaluator analyzes a once and returns an evaluator over it.
func NewEvaluator(a *Analysis) *Evaluator {
	e := &Evaluator{a: a, classes: make([]classEval, len(a.Classes))}
	for i := range a.Classes {
		c := &a.Classes[i]
		ce := classEval{c: c, gr: c.Reduced.G}
		ce.square = ce.gr.Rows() == ce.gr.Cols() && ce.gr.IsNonsingular()
		if ce.square {
			ce.projSpread = c.Reduced.Project(c.Spread())
			if d, err := ce.gr.DetChecked(); err == nil {
				ce.detGr = math.Abs(float64(d))
			} else {
				// det G' beyond int64: exact magnitude via big.Int, rounded
				// to float64 — only the lower-bound coefficient needs it.
				f, _ := new(big.Float).SetInt(ce.gr.DetBig()).Float64()
				ce.detGr = math.Abs(f)
			}
			e.sumDetGr += ce.detGr
			e.numSquare++
			ce.u, _, ce.uOK = c.SpreadCoeffs()
			if len(c.Refs) == 2 {
				if u, integral, ok := c.PairCoeffs(); ok && integral {
					ce.pairU = make([]int64, len(u))
					for k := range u {
						ce.pairU[k] = int64(math.Round(u[k]))
					}
				}
			}
		}
		e.classes[i] = ce
	}
	return e
}

// Analysis returns the underlying analysis.
func (e *Evaluator) Analysis() *Analysis { return e.a }

// RectTotalFootprint is Analysis.RectTotalFootprint with the cached
// per-class terms: identical values, no per-candidate rational solves.
func (e *Evaluator) RectTotalFootprint(ext []int64) (float64, Exactness) {
	return e.RectTotalFootprintScratch(ext, nil)
}

// RectTotalFootprintScratch is RectTotalFootprint with a caller-provided
// scratch buffer (len ≥ len(ext)) absorbing the only per-call allocation
// of the closed-form class paths — the Lemma 3 pair-union bounds. The
// values are bit-identical to RectTotalFootprint; a nil or short scratch
// falls back to allocating. The scratch is overwritten per class, so one
// buffer serves a whole sequential candidate sweep.
func (e *Evaluator) RectTotalFootprintScratch(ext, scratch []int64) (float64, Exactness) {
	total := 0.0
	worst := Exact
	var work int64
	for i := range e.classes {
		v, ex, _, points := e.classes[i].rectFootprint(ext, scratch, false)
		total += v
		work += points
		if ex > worst {
			worst = ex
		}
	}
	e.addWork(work)
	return total, worst
}

// RectTotals returns Analysis.RectTotalFootprint and the traffic of
// Analysis.RectTotalTraffic in one pass: each enumerated class is walked
// once, counting its first reference's footprint alongside the union.
// Both sums fold per class in class order exactly as the Analysis methods
// do, so the values are bit-identical; the exactness is the footprint's.
func (e *Evaluator) RectTotals(ext []int64) (fp, traffic float64, ex Exactness) {
	base := 1.0
	for _, x := range ext {
		base *= float64(x)
	}
	var work int64
	for i := range e.classes {
		v, cex, single, points := e.classes[i].rectFootprint(ext, nil, true)
		fp += v
		if cex == Enumerated {
			traffic += v - float64(single)
		} else {
			traffic += v - base
		}
		work += points
		if cex > ex {
			ex = cex
		}
	}
	e.addWork(work)
	return fp, traffic, ex
}

// EnumPoints returns the number of iteration points the evaluator's
// queries have enumerated so far — the work of the exact-enumeration
// fallbacks, zero when every class scored in closed form.
func (e *Evaluator) EnumPoints() int64 { return e.enumPoints.Load() }

func (e *Evaluator) addWork(points int64) {
	if points != 0 {
		e.enumPoints.Add(points)
	}
}

// RectClosedForm reports whether every class of the analysis scores
// through a closed-form rectangular expression — square nonsingular
// reduced G' and a single-reference (volume), integral-pair (Lemma 3), or
// linearized-coefficient (Theorem 4) form — i.e. RectTotalFootprint never
// falls back to per-candidate enumeration. This is the structural half of
// the closed-form fast-path domain in internal/partition.
func (e *Evaluator) RectClosedForm() bool {
	for i := range e.classes {
		ce := &e.classes[i]
		if !ce.square {
			return false
		}
		if len(ce.c.Refs) != 1 && ce.pairU == nil && !ce.uOK {
			return false
		}
	}
	return true
}

// SpreadCoeff returns the cached Theorem 4 spread coefficient |u_k| of
// class i, and whether the coefficients are valid for that class.
func (e *Evaluator) SpreadCoeff(i, k int) (float64, bool) {
	ce := &e.classes[i]
	if !ce.uOK || k >= len(ce.u) {
		return 0, false
	}
	return ce.u[k], true
}

// rectFootprint mirrors Class.RectFootprint exactly, reading the cached
// decomposition instead of re-solving it. scratch, when long enough,
// holds the pair-union bounds; nil allocates as before. An enumerated
// result also carries the points walked and, withSingle, the first
// reference's own footprint (see rectEnumOrModel).
func (ce *classEval) rectFootprint(ext, scratch []int64, withSingle bool) (v float64, ex Exactness, single, points int64) {
	if !ce.square {
		return ce.c.rectEnumOrModel(ext, withSingle)
	}
	base := 1.0
	for _, x := range ext {
		base *= float64(x)
	}
	if len(ce.c.Refs) == 1 {
		return base, Exact, 0, 0
	}
	if ce.pairU != nil {
		bounds := scratch
		if len(bounds) < len(ext) {
			bounds = make([]int64, len(ext))
		}
		bounds = bounds[:len(ext)]
		for k := range ext {
			bounds[k] = ext[k] - 1
		}
		return float64(lattice.UnionSizeModel(bounds, ce.pairU)), Exact, 0, 0
	}
	// Linearized Theorem 4 (Class.RectFootprintLinearized) on the cached
	// coefficients.
	if !ce.uOK {
		return ce.c.rectEnumOrModel(ext, withSingle)
	}
	total := base
	for i, ui := range ce.u {
		term := ui
		for j, x := range ext {
			if j == i {
				continue
			}
			term *= float64(x)
		}
		total += term
	}
	return total, Approximate, 0, 0
}

// TileTotalFootprint is Analysis.TileTotalFootprint with the projected
// spread and reduced G cached: identical values, only the shape-dependent
// determinants are computed per candidate.
func (e *Evaluator) TileTotalFootprint(t tile.Tile) (float64, Exactness) {
	total := 0.0
	worst := Exact
	var work int64
	for i := range e.classes {
		v, ex, points := e.classes[i].tileFootprint(t)
		total += v
		work += points
		if ex > worst {
			worst = ex
		}
	}
	e.addWork(work)
	return total, worst
}

// tileFootprint mirrors Class.TileFootprint on the cached terms.
func (ce *classEval) tileFootprint(t tile.Tile) (float64, Exactness, int64) {
	if !ce.square {
		return ce.c.tileEnumOrModel(t)
	}
	v, ex := tileModelFootprint(t, ce.gr, ce.projSpread)
	return v, ex, 0
}

// RectLowerBound returns an admissible lower bound on RectTotalFootprint:
// every class with square nonsingular reduced G' contributes at least the
// tile volume Π extⱼ (single reference: exactly the volume; a union of
// translates: at least one translate; the linearized form: volume plus
// nonnegative spread terms), and classes without a closed form contribute
// at least zero. The bound is monotone in the volume — the paper's
// Π(Lⱼⱼ+1) leading term — so a candidate whose volume term alone exceeds
// an incumbent's full footprint can be discarded before model evaluation.
func (e *Evaluator) RectLowerBound(ext []int64) float64 {
	vol := 1.0
	for _, x := range ext {
		vol *= float64(x)
	}
	return float64(e.numSquare) * vol
}

// TileLowerBound is the hyperparallelepiped analogue of RectLowerBound for
// a tile of |det L| = volume: each square class contributes at least
// |det LG'| = |det L|·|det G'| (the Theorem 2 spread terms are absolute
// values, hence nonnegative).
func (e *Evaluator) TileLowerBound(volume int64) float64 {
	return e.sumDetGr * float64(volume)
}
