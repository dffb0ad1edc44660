package partition

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"looppart/internal/footprint"
	"looppart/internal/obs"
	"looppart/internal/telemetry"
)

// The search engine: every optimizer in this package enumerates an indexed
// candidate space (processor grids, extent factorizations × skews) and
// scores each candidate with a footprint model. The engine evaluates
// candidates on a bounded worker pool and leaves the choice of winner to a
// deterministic fold over the scored candidates in enumeration order — the
// exact loop the sequential implementation ran — so the chosen plan is
// bit-identical to the sequential result, tie-breaks included, whatever
// the pool size or scheduling.
//
// Workers share a running upper bound (the best footprint evaluated so
// far, across all workers) used for pruning: a candidate whose admissible
// lower bound — the monotone volume term of the Theorem 2/4 objective —
// already exceeds the bound cannot win and is skipped before model
// evaluation. Pruning never discards a potential winner: a pruned
// candidate's footprint is at least its lower bound, which strictly
// exceeds the footprint of an evaluated candidate, and the model's values
// are separated by far more than the better() tie epsilon, so the fold's
// outcome is unchanged.

// searchWorkers holds the configured pool size; 0 means GOMAXPROCS.
var searchWorkers atomic.Int32

// pruneDisabled turns off lower-bound pruning (tests compare pruned and
// unpruned searches for identical plans).
var pruneDisabled atomic.Bool

// SetSearchWorkers bounds the candidate-evaluation pool at n workers and
// returns the previous setting. n <= 0 restores the default (GOMAXPROCS).
// The plan found does not depend on the pool size; only wall-clock does.
func SetSearchWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(searchWorkers.Swap(int32(n)))
}

// poolSize returns the effective worker count.
func poolSize() int {
	if n := int(searchWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// forEachCandidate runs eval(i) for every i in [0, n) on the worker pool.
// eval must be safe for concurrent invocation on distinct indices; with a
// single worker the calls are inline and in order.
func forEachCandidate(n int, eval func(i int)) {
	workers := poolSize()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			eval(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				eval(i)
			}
		}()
	}
	wg.Wait()
}

// minBound is an atomically maintained running minimum, shared by the
// workers as the pruning bound. Footprints are nonnegative, so the
// monotone-under-min property of the IEEE bit pattern does not hold in
// general; a CAS loop keeps the update exact.
type minBound struct{ bits atomic.Uint64 }

func newMinBound() *minBound {
	b := &minBound{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

func (b *minBound) value() float64 { return math.Float64frombits(b.bits.Load()) }

// observe lowers the bound to v if v is smaller.
func (b *minBound) observe(v float64) {
	for {
		old := b.bits.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// candidate evaluation states recorded by the parallel pass and read by
// the deterministic fold.
const (
	candInfeasible = iota // grid exceeds the space, or never reached
	candPruned            // lower bound exceeded the shared bound
	candEvaluated         // footprint model evaluated
)

// betterEps is the tie tolerance of better(); pruning leaves this margin
// so a candidate that could still tie on footprint is never skipped.
const betterEps = 1e-9

// recordEnumWork publishes the iteration points ev's queries enumerated
// (the exact-enumeration fallback's work) as the span's enum_points
// attribute and on the partition.enum_points counter. sp and reg may be
// nil.
func recordEnumWork(sp *obs.Span, reg *telemetry.Registry, ev *footprint.Evaluator) {
	n := ev.EnumPoints()
	sp.SetAttr("enum_points", n)
	reg.Counter("partition.enum_points").Add(n)
}
