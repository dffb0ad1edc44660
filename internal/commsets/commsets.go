// Package commsets computes exact per-tile communication sets for a
// partitioned loop nest.
//
// The paper predicts coherence traffic indirectly, from the overlap of
// neighboring tiles' footprints. Affine dataflow analysis (Ferry et
// al.'s MARS decomposition) shows the same machinery can instead answer
// the direct question: for every uniformly intersecting reference class,
// exactly which data does each processor's tile produce that other
// tiles consume? This package computes that decomposition — irredundant
// tile→tile transfer sets with exact element counts — for rect and
// skewed plans.
//
// Two engines share the work:
//
//   - The analytic engine handles rectangular tilings whose class
//     reference matrix G is one-to-one. Every reference's footprint over
//     a tile box is then the translate of a single bounded lattice
//     (Definition 9), so tile→tile intersections reduce to box algebra
//     in the lattice's coefficient space: each member's offset is solved
//     against G with internal/intmat's HNF machinery (a_x − a_0 = u_x·G),
//     and the transfer set from tile t to tile s is the union of boxes
//     (B_t + u_w) ∩ (B_s + u_r) over (writer w, reader r) pairs, counted
//     exactly by coordinate compression. No iteration point is ever
//     enumerated.
//
//   - The scan engine handles everything else (parallelepiped tiles,
//     slab plans, rank-deficient G): one pass over the iteration space
//     classifies every element's writer and reader processors through
//     the tiling's lattice membership. It is exact by construction and
//     budget-gated.
//
// Enumeration appears once more, in Oracle: a deliberately naive
// reimplementation used only to validate the engines (verify.DiffCommSets,
// FuzzCommSets).
package commsets

import (
	"context"
	"fmt"
	"sort"

	"looppart/internal/footprint"
	"looppart/internal/intmat"
	"looppart/internal/obs"
	"looppart/internal/telemetry"
	"looppart/internal/tile"
)

// DefaultPointBudget bounds the scan engine and the oracle: iteration
// space size × reference count may not exceed it.
const DefaultPointBudget = 4 << 20

// Spec names the plan whose communication sets are wanted.
type Spec struct {
	// Analysis is the nest's reference-class analysis.
	Analysis *footprint.Analysis
	// Space is the doall iteration space (tile.BoundsOf of the nest).
	Space tile.Bounds
	// Procs is the processor count the plan was built for.
	Procs int
	// Tile is set for tile-shaped plans. Rectangular tiles are assumed
	// anchored at Space.Lo (how every plan in this repository builds its
	// tiling); the analytic engine depends on it.
	Tile *tile.Tile
	// Assign maps an iteration point to its processor. Required whenever
	// the analytic engine does not apply (skewed tiles, slabs,
	// rank-deficient classes).
	Assign func(p []int64) int
}

// Options tunes Compute.
type Options struct {
	// Materialize additionally records the data elements of every
	// transfer set (the message-passing executor needs them). Without it
	// only exact counts are produced.
	Materialize bool
	// PointBudget caps the scan engine (0 = DefaultPointBudget).
	PointBudget int64
}

// Elem is one array element, identified by its data coordinates.
type Elem struct {
	Array string
	Index []int64
}

// Transfer is one irredundant producer→consumer set: the number of
// distinct elements processor From writes per epoch that processor To
// reads. Elems carries the elements themselves when materialized.
type Transfer struct {
	From  int   `json:"from"`
	To    int   `json:"to"`
	Words int64 `json:"words"`
	Elems []Elem `json:"-"`
}

// ClassComm is one reference class's communication decomposition.
type ClassComm struct {
	Array  string `json:"array"`
	Class  int    `json:"class"`
	Method string `json:"method"` // "analytic" or "scan"
	Words  int64  `json:"words"`
	// Transfers lists the non-empty tile→tile sets, sorted by (From, To).
	Transfers []Transfer `json:"transfers,omitempty"`

	// owned[p] is the class's write coverage of processor p
	// (materialized runs only); used to assemble the final state in the
	// message-passing executor.
	owned [][]Elem
}

// Analysis is the full communication-set decomposition of one plan.
type Analysis struct {
	Procs   int         `json:"procs"`
	Classes []ClassComm `json:"classes"`
	// Sent[p]/Recv[p] are words per epoch processor p sends/receives.
	Sent []int64 `json:"sent"`
	Recv []int64 `json:"recv"`
	// TotalWords is the per-epoch network total, Σ Sent = Σ Recv.
	TotalWords int64 `json:"total_words"`

	// UniqueWrite reports that no element is written more than once per
	// epoch (counting multiplicity): each datum has a well-defined
	// producer, the precondition for deterministic message passing and
	// for the coherence-traffic sandwich bound.
	UniqueWrite bool `json:"unique_write"`
	// CrossClassHazard reports a written array with more than one
	// reference class: dataflow between classes of the same array falls
	// outside the per-class decomposition.
	CrossClassHazard bool `json:"cross_class_hazard,omitempty"`
	// BackwardRAW reports a cross-processor read of an element written
	// earlier in the same epoch (lexicographically earlier iteration).
	// Bulk-synchronous message passing delivers remote writes only at
	// epoch boundaries, so such nests cannot match the sequential run.
	BackwardRAW bool `json:"backward_raw,omitempty"`
	// Method is "analytic", "scan", or "mixed".
	Method string `json:"method"`

	materialized bool
}

// Summary is the compact serving-layer digest of an Analysis, attached
// to PlanResult and reported by the autotune tournament.
type Summary struct {
	// Words is the predicted inter-processor network total per epoch.
	Words    int64   `json:"words"`
	MaxSent  int64   `json:"max_sent,omitempty"`
	MeanSent float64 `json:"mean_sent,omitempty"`
	MaxRecv  int64   `json:"max_recv,omitempty"`
	Method   string  `json:"method,omitempty"`
}

// Summary digests the analysis.
func (a *Analysis) Summary() *Summary {
	s := &Summary{Words: a.TotalWords, Method: a.Method}
	for _, w := range a.Sent {
		if w > s.MaxSent {
			s.MaxSent = w
		}
	}
	for _, w := range a.Recv {
		if w > s.MaxRecv {
			s.MaxRecv = w
		}
	}
	if a.Procs > 0 {
		s.MeanSent = float64(a.TotalWords) / float64(a.Procs)
	}
	return s
}

// CanCheckValues reports whether a message-passing run of this plan must
// reproduce the sequential result: every element has a unique producer,
// no cross-class dataflow, and no backward same-epoch read.
func (a *Analysis) CanCheckValues() bool {
	return a.UniqueWrite && !a.CrossClassHazard && !a.BackwardRAW
}

// ComputeCtx builds the communication sets for a plan. When ctx carries
// an obs.Trace, the computation records a "commsets.analyze" span.
func ComputeCtx(ctx context.Context, spec Spec, opts Options) (*Analysis, error) {
	_, sp := obs.StartSpan(ctx, "commsets.analyze")
	defer sp.End()

	if spec.Analysis == nil {
		return nil, fmt.Errorf("commsets: nil analysis")
	}
	if spec.Procs <= 0 {
		return nil, fmt.Errorf("commsets: need at least one processor")
	}
	if spec.Space.Dim() != len(spec.Analysis.Vars) {
		return nil, fmt.Errorf("commsets: space dimension %d != %d doall vars",
			spec.Space.Dim(), len(spec.Analysis.Vars))
	}

	a := &Analysis{
		Procs:        spec.Procs,
		Sent:         make([]int64, spec.Procs),
		Recv:         make([]int64, spec.Procs),
		UniqueWrite:  true,
		materialized: opts.Materialize,
	}

	// Cross-class hazard: a written array split across classes.
	byArray := map[string]int{}
	for _, c := range spec.Analysis.Classes {
		byArray[c.Array]++
	}
	for _, c := range spec.Analysis.Classes {
		if byArray[c.Array] > 1 && c.HasWrite() {
			a.CrossClassHazard = true
		}
	}

	boxes, boxErr := rectProcBoxes(spec)
	var cells int64
	var scanIdx []int
	nAnalytic := 0
	a.Classes = make([]ClassComm, len(spec.Analysis.Classes))
	for ci := range spec.Analysis.Classes {
		c := &spec.Analysis.Classes[ci]
		if boxErr == nil && intmat.IsOneToOne(c.G) {
			cc, n, err := analyzeClassBoxes(c, ci, boxes, spec.Procs, opts.Materialize, a)
			if err == nil {
				a.Classes[ci] = cc
				cells += n
				nAnalytic++
				continue
			}
		}
		scanIdx = append(scanIdx, ci)
	}
	if len(scanIdx) > 0 {
		n, err := scanClasses(spec, scanIdx, opts, a)
		if err != nil {
			return nil, err
		}
		cells += n
	}

	for ci := range a.Classes {
		for _, t := range a.Classes[ci].Transfers {
			a.Sent[t.From] += t.Words
			a.Recv[t.To] += t.Words
			a.TotalWords += t.Words
		}
	}
	switch {
	case len(scanIdx) == 0:
		a.Method = "analytic"
	case nAnalytic == 0:
		a.Method = "scan"
	default:
		a.Method = "mixed"
	}

	reg := telemetry.Active()
	reg.Counter("commsets.computed").Add(1)
	reg.Counter("commsets.cells").Add(cells)
	reg.Counter("commsets.words").Add(a.TotalWords)
	sp.SetAttr("method", a.Method)
	sp.SetAttr("words", a.TotalWords)
	sp.SetAttr("classes", len(a.Classes))
	return a, nil
}

// Exchange is the materialized message plan for one epoch: the merged
// per-processor-pair element lists and each processor's write coverage.
type Exchange struct {
	Procs int
	// Pairs is sorted by (From, To); Words = Σ len(Elems).
	Pairs []Transfer
	// Owned[p] lists the elements processor p produces.
	Owned [][]Elem
	Words int64
}

// Exchange merges the per-class transfer sets into one message plan.
// Requires a materialized analysis. Classes of distinct arrays never
// overlap, and a written array has a single class unless
// CrossClassHazard is set, so concatenation stays irredundant.
func (a *Analysis) Exchange() (*Exchange, error) {
	if !a.materialized {
		return nil, fmt.Errorf("commsets: analysis was not materialized (Options.Materialize)")
	}
	ex := &Exchange{Procs: a.Procs, Owned: make([][]Elem, a.Procs)}
	merged := map[[2]int][]Elem{}
	for ci := range a.Classes {
		cc := &a.Classes[ci]
		for _, t := range cc.Transfers {
			key := [2]int{t.From, t.To}
			merged[key] = append(merged[key], t.Elems...)
		}
		for p, elems := range cc.owned {
			ex.Owned[p] = append(ex.Owned[p], elems...)
		}
	}
	keys := make([][2]int, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		elems := merged[k]
		ex.Pairs = append(ex.Pairs, Transfer{From: k[0], To: k[1], Words: int64(len(elems)), Elems: elems})
		ex.Words += int64(len(elems))
	}
	return ex, nil
}

// Table renders the per-tile send/receive table.
func (a *Analysis) Table() string {
	var b []byte
	b = append(b, fmt.Sprintf("%-6s %12s %12s\n", "proc", "sent", "recv")...)
	for p := 0; p < a.Procs; p++ {
		b = append(b, fmt.Sprintf("%-6d %12d %12d\n", p, a.Sent[p], a.Recv[p])...)
	}
	b = append(b, fmt.Sprintf("total words/epoch: %d (method %s)\n", a.TotalWords, a.Method)...)
	return string(b)
}

// lexNeg reports v ≺ 0 in lexicographic order.
func lexNeg(v []int64) bool {
	for _, x := range v {
		if x != 0 {
			return x < 0
		}
	}
	return false
}

func isWriter(r *footprint.Ref) bool { return r.Writes > 0 || r.Atomic }
func isReader(r *footprint.Ref) bool { return r.Reads > 0 || r.Atomic }
