package verify

import (
	"context"
	"errors"
	"fmt"

	"looppart/internal/cachesim"
	"looppart/internal/commsets"
	"looppart/internal/exec"
	"looppart/internal/footprint"
	"looppart/internal/loopir"
	"looppart/internal/msgexec"
	"looppart/internal/partition"
	"looppart/internal/tile"
)

// CommDiff is the outcome of one communication-set differential: the
// engines against the enumeration oracle, the message-passing executor
// against the prediction, and (when the nest is eligible) the
// coherence-traffic sandwich against cachesim.
type CommDiff struct {
	Procs int
	// Words is the predicted inter-processor words per epoch.
	Words  int64
	Method string
	// MsgexecWords is what the message-passing run actually moved
	// (equal to Words × epochs — Run errors otherwise).
	MsgexecWords int64
	// ValuesChecked reports the message-passing run reproduced the
	// sequential result (plans with a unique producer per element, no
	// cross-class dataflow, and no backward same-epoch dependence).
	ValuesChecked bool
	// CachesimChecked reports the sandwich bound ran: on an infinite
	// cache, a steady-state epoch's coherence misses must lie in
	// [Words, 2·Words] — each transferred element costs its consumer at
	// least one coherence miss per epoch (its copy is invalidated by the
	// producer's unique write) and at most two (one stale reload before
	// the write, one after).
	CachesimChecked bool
	// SteadyCoherence is the steady-state epoch's coherence misses.
	SteadyCoherence int64
	// LowerBoundChecked reports the lower-bound sandwich ran: the
	// Dinh–Demmel bound qualified at least one reference class, so
	// LowerBound ≤ Words must hold — the served rect plan's grid is one of
	// the factorization grids the bound minimizes over.
	LowerBoundChecked bool
	// LowerBound is the computed communication lower bound in words.
	LowerBound int64
}

// ErrCommDiffUnsupported marks nests the differential cannot take
// end-to-end — front-of-pipeline rejections (parse, validation,
// analysis, search infeasibility), as opposed to a disagreement between
// the comm-set engines and their checks.
var ErrCommDiffUnsupported = errors.New("commdiff: unsupported nest")

// commDiffEpochs is how many wrapped epochs the cachesim leg simulates;
// epochs ≥ 2 behave identically on an infinite cache, so epoch 3 minus
// epoch 2 isolates one steady-state epoch.
const commDiffEpochs = 3

// DiffCommSets builds the rect plan for src on procs processors,
// computes its exact communication sets, and differentially checks them
// three ways: engine counts against the enumeration oracle
// element-for-element, the message-passing executor's measured words
// against the prediction, and — for unique-writer nests — the cachesim
// coherence-traffic sandwich. Any disagreement is an error.
func DiffCommSets(src string, procs int) (*CommDiff, error) {
	n, err := loopir.Parse(src, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: parse: %v", ErrCommDiffUnsupported, err)
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("%w: validate: %v", ErrCommDiffUnsupported, err)
	}
	a, err := footprint.Analyze(n)
	if err != nil {
		return nil, fmt.Errorf("%w: analyze: %v", ErrCommDiffUnsupported, err)
	}
	// The msgexec and cachesim legs execute the nest, which needs a
	// consistent data layout (footprint analysis alone does not).
	if _, err := exec.StoreFor(n); err != nil {
		return nil, fmt.Errorf("%w: layout: %v", ErrCommDiffUnsupported, err)
	}
	rp, err := partition.OptimizeRect(context.Background(), a, procs)
	if err != nil {
		return nil, fmt.Errorf("%w: optimize: %v", ErrCommDiffUnsupported, err)
	}
	t := rp.Tile()
	space := tile.BoundsOf(n)
	tl, err := tile.NewTiling(t, space.Lo)
	if err != nil {
		return nil, err
	}
	asg, err := tile.Assign(tl, space, procs)
	if err != nil {
		return nil, err
	}

	spec := commsets.Spec{Analysis: a, Space: space, Procs: procs, Tile: &t, Assign: asg.ProcOf}
	comm, err := commsets.ComputeCtx(context.Background(), spec, commsets.Options{Materialize: true})
	if err != nil {
		return nil, fmt.Errorf("commsets: %w", err)
	}
	res := &CommDiff{Procs: procs, Words: comm.TotalWords, Method: comm.Method}

	// Leg 1: exact counts against the enumeration oracle, every class,
	// every processor pair, to the element.
	oracle, err := commsets.Oracle(spec, 0)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if err := compareOracle(comm, oracle); err != nil {
		return nil, err
	}
	if oracle.UniqueWrite != comm.UniqueWrite {
		return nil, fmt.Errorf("unique-write disagreement: engines say %v, oracle says %v",
			comm.UniqueWrite, oracle.UniqueWrite)
	}

	// Leg 2: the message-passing run must move exactly the predicted
	// words (Run errors on mismatch), and reproduce the sequential
	// result when the plan admits deterministic message passing.
	rep, err := msgexec.Run(n, asg.ProcOf, comm)
	if err != nil {
		return nil, fmt.Errorf("msgexec: %w", err)
	}
	res.MsgexecWords = rep.WordsMoved
	res.ValuesChecked = rep.ValuesChecked
	if comm.CanCheckValues() && !rep.ValuesChecked {
		return nil, fmt.Errorf("msgexec skipped the value check on an eligible plan")
	}

	// Leg 3: coherence-traffic sandwich. Eligible when every element has
	// a unique producer (so invalidation counting is per-element), the
	// nest is single-epoch (we wrap it in a fresh doseq), and no
	// reference is atomic (Appendix A treats those reads as writes,
	// outside the read/write split the bound is stated for).
	if comm.UniqueWrite && !comm.CrossClassHazard && len(n.SeqLoops()) == 0 && !hasAtomic(n) {
		steady, err := steadyCoherence(src, procs, asg.ProcOf, space.Size())
		if err != nil {
			return nil, err
		}
		res.CachesimChecked = true
		res.SteadyCoherence = steady
		if steady < comm.TotalWords || steady > 2*comm.TotalWords {
			return res, fmt.Errorf("coherence sandwich violated: steady-state epoch has %d coherence misses, comm sets predict [%d, %d]",
				steady, comm.TotalWords, 2*comm.TotalWords)
		}
	}

	// Leg 4: lower-bound sandwich. The rect plan measured above comes
	// from the factorization-grid family the Dinh–Demmel bound minimizes
	// over, so whenever the bound qualifies any reference class its value
	// must sit at or below the exact measured words — a violation means
	// either the bound over-counts or the comm sets under-count.
	if lb, err := partition.CommLowerBound(a, procs); err == nil && lb.Classes > 0 {
		res.LowerBoundChecked = true
		res.LowerBound = lb.Words
		if lb.Words > comm.TotalWords {
			return res, fmt.Errorf("lower-bound sandwich violated: bound %d words > exact comm %d words (grid %v)",
				lb.Words, comm.TotalWords, lb.Grid)
		}
	}
	return res, nil
}

func compareOracle(comm *commsets.Analysis, oracle *commsets.OracleResult) error {
	if len(comm.Classes) != len(oracle.Classes) {
		return fmt.Errorf("class count disagreement: %d vs oracle %d", len(comm.Classes), len(oracle.Classes))
	}
	for ci := range comm.Classes {
		cc := &comm.Classes[ci]
		oc := &oracle.Classes[ci]
		seen := map[[2]int]int64{}
		for _, t := range cc.Transfers {
			seen[[2]int{t.From, t.To}] = t.Words
			if t.Words != oc.Pairs[[2]int{t.From, t.To}] {
				return fmt.Errorf("class %d (%s, %s): transfer %d→%d has %d words, oracle counted %d",
					ci, cc.Array, cc.Method, t.From, t.To, t.Words, oc.Pairs[[2]int{t.From, t.To}])
			}
		}
		for pair, words := range oc.Pairs {
			if _, ok := seen[pair]; !ok && words > 0 {
				return fmt.Errorf("class %d (%s, %s): oracle found transfer %d→%d of %d words the engine missed",
					ci, cc.Array, cc.Method, pair[0], pair[1], words)
			}
		}
		if cc.Words != oc.Words {
			return fmt.Errorf("class %d (%s): %d words vs oracle %d", ci, cc.Array, cc.Words, oc.Words)
		}
	}
	return nil
}

// steadyCoherence wraps the single-epoch nest in a doseq time loop and
// replays it on an infinite cache for 2 and 3 epochs; the difference in
// coherence misses is one steady-state epoch.
func steadyCoherence(src string, procs int, assign func([]int64) int, spaceSize int64) (int64, error) {
	var last int64
	for e := commDiffEpochs - 1; e <= commDiffEpochs; e++ {
		wrapped := fmt.Sprintf("doseq (commdiffepoch, 1, %d)\n%s\nenddoseq", e, src)
		wn, err := loopir.Parse(wrapped, nil)
		if err != nil {
			return 0, fmt.Errorf("wrap: %w", err)
		}
		m, err := cachesim.New(cachesim.Config{Procs: procs, ExpectedData: int(spaceSize) * 4})
		if err != nil {
			return 0, err
		}
		if err := cachesim.RunNest(m, wn, assign); err != nil {
			return 0, err
		}
		coh := m.Finish().CoherenceMisses
		if e == commDiffEpochs {
			return coh - last, nil
		}
		last = coh
	}
	return 0, nil
}

func hasAtomic(n *loopir.Nest) bool {
	for _, acc := range n.Accesses() {
		if acc.Atomic {
			return true
		}
	}
	return false
}
