// Package autotune closes the predict→measure→refine loop around the
// partitioner. The paper's optimizers minimize an analytic footprint model
// (Eq. 2, Theorems 2 and 4) parameterized by machine constants §4 takes as
// given — line size, miss cost, mesh distance. This package measures
// instead of assuming:
//
//   - Calibrate fits those constants to the executing machine by running
//     microbenchmarks through the cache simulator (and, in host mode, a
//     wall-clock stride probe), producing a versioned Fingerprint;
//   - RunTournamentCtx replays the search's top-K candidate plans through the
//     simulator under the calibrated constants and selects the measured
//     winner, recording predicted-vs-measured deltas as decision-trace
//     events;
//   - Store persists tournament winners on disk keyed by canonical plan
//     key + fingerprint + schema version, so a restarted daemon
//     warm-starts from past work instead of re-searching.
package autotune

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"looppart/internal/cachesim"
	"looppart/internal/machine"
)

// FingerprintSchema versions the fingerprint encoding; bumping it
// invalidates every stored plan (the store key includes it).
const FingerprintSchema = 1

// Fingerprint is a calibrated machine model: the cost constants the
// partitioning pipeline's measurements run under, plus provenance. Two
// fingerprints with the same constants address the same tuned-plan
// namespace regardless of how they were obtained (Source and Host are
// provenance, not identity).
type Fingerprint struct {
	Schema int `json:"schema"`
	// Source records how the constants were obtained: "model" (the
	// paper's defaults, taken as given), "sim" (fit to the cache
	// simulator by microbenchmark), or "host" (wall-clock stride probe).
	Source string `json:"source"`
	// Host describes the calibrated machine (GOOS/GOARCH/NumCPU).
	Host string `json:"host,omitempty"`

	// LineElems is the cache-line size in array elements (1 = the
	// paper's unit-line model).
	LineElems int64 `json:"line_elems"`
	// HitCost, MissCost, AtomicCost are the per-access charges of the
	// uniform-memory model (§2.2, Appendix A), in cache-hit units.
	HitCost    float64 `json:"hit_cost"`
	MissCost   float64 `json:"miss_cost"`
	AtomicCost float64 `json:"atomic_cost"`
	// LocalMem, RemoteBase, PerHop are the distributed-memory constants
	// of the §4 mesh model.
	LocalMem   float64 `json:"local_mem"`
	RemoteBase float64 `json:"remote_base"`
	PerHop     float64 `json:"per_hop"`
}

// ModelFingerprint returns the uncalibrated fingerprint: the paper's
// qualitative constants exactly as the simulator defaults assume them.
func ModelFingerprint() Fingerprint {
	cfg := cachesim.DefaultConfig(1)
	cost := machine.DefaultCostModel()
	return Fingerprint{
		Schema:     FingerprintSchema,
		Source:     "model",
		LineElems:  1,
		HitCost:    cfg.CostCacheHit,
		MissCost:   cfg.CostMemory,
		AtomicCost: cfg.CostAtomic,
		LocalMem:   cost.LocalMem,
		RemoteBase: cost.RemoteBase,
		PerHop:     cost.PerHop,
	}
}

// ID returns the fingerprint's stable identity: a short hash over the
// schema and the cost constants. Provenance fields (Source, Host) are
// excluded on purpose — a calibration run that recovers the model's own
// constants maps to the same tuned-plan namespace, so confirming the
// model never invalidates the store.
func (f Fingerprint) ID() string {
	h := sha256.New()
	fmt.Fprintf(h, "fp%d|%d|%s|%s|%s|%s|%s|%s",
		f.Schema, f.LineElems,
		canonFloat(f.HitCost), canonFloat(f.MissCost), canonFloat(f.AtomicCost),
		canonFloat(f.LocalMem), canonFloat(f.RemoteBase), canonFloat(f.PerHop))
	return "fp" + hex.EncodeToString(h.Sum(nil))[:16]
}

// canonFloat renders a constant with enough precision to distinguish real
// calibration differences while keeping the ID stable across the
// float-formatting choices of different call sites.
func canonFloat(v float64) string { return strconv.FormatFloat(v, 'g', 12, 64) }

func (f Fingerprint) String() string {
	return fmt.Sprintf("%s (schema %d, source %s): line=%d hit=%.3g miss=%.3g atomic=%.3g local=%.3g remote=%.3g+%.3g/hop",
		f.ID(), f.Schema, f.Source, f.LineElems,
		f.HitCost, f.MissCost, f.AtomicCost, f.LocalMem, f.RemoteBase, f.PerHop)
}

// SimConfig returns the uniform-memory simulator configuration running
// under this fingerprint's constants.
func (f Fingerprint) SimConfig(procs int) cachesim.Config {
	cfg := cachesim.DefaultConfig(procs)
	cfg.CostCacheHit = f.HitCost
	cfg.CostMemory = f.MissCost
	cfg.CostAtomic = f.AtomicCost
	return cfg
}

// CalibrateOptions parameterizes Calibrate.
type CalibrateOptions struct {
	// Probes is the number of distinct data each microbenchmark touches
	// (default 256). More probes average out nothing in the simulator —
	// it is deterministic — but keep the fit honest if a cost model ever
	// becomes state-dependent.
	Probes int
	// Mesh is the processor count of the distributed-memory probe
	// (default 16; SquarishMesh(16) = 4×4 so hop distances 0..6 are all
	// exercised).
	Mesh int
	// Host switches to wall-clock calibration: a stride probe over a
	// large array estimates the real cache-line size and the
	// miss:hit cost ratio from elapsed time. Non-deterministic; intended
	// for cmd/looptune on real hardware, never for tests.
	Host bool
}

// Calibrate fits the cost-model constants by measurement and returns the
// resulting fingerprint.
//
// In the default (simulator) mode the microbenchmarks run through
// internal/cachesim exactly the way a plan replay does, and the constants
// are recovered from the observed Cost/Misses deltas — nothing is copied
// from the configuration. Fitting the simulator is the deterministic
// stand-in for fitting real hardware (the simulator is this repo's
// machine, per DESIGN.md §2), and it cross-checks that the constants the
// analytic model assumes are the constants the measurement layer actually
// charges.
func Calibrate(opts CalibrateOptions) (Fingerprint, error) {
	if opts.Probes <= 0 {
		opts.Probes = 256
	}
	if opts.Mesh <= 0 {
		opts.Mesh = 16
	}
	fp := Fingerprint{
		Schema: FingerprintSchema,
		Source: "sim",
		Host:   runtime.GOOS + "/" + runtime.GOARCH + "/" + strconv.Itoa(runtime.NumCPU()),
	}

	var err error
	if fp.HitCost, fp.MissCost, err = probeHitMiss(opts.Probes); err != nil {
		return Fingerprint{}, err
	}
	if fp.AtomicCost, err = probeAtomic(opts.Probes); err != nil {
		return Fingerprint{}, err
	}
	if fp.LocalMem, fp.RemoteBase, fp.PerHop, err = probeMesh(opts.Mesh); err != nil {
		return Fingerprint{}, err
	}
	fp.LineElems = 1 // the simulator coheres at unit-line granularity

	if opts.Host {
		fp.Source = "host"
		fp.LineElems = probeHostLine()
		// The wall-clock ratio replaces the simulator's charged ratio;
		// hit cost stays the unit.
		fp.MissCost = probeHostMissRatio() * fp.HitCost
		if fp.AtomicCost < fp.MissCost {
			// Preserve the model's ordering: synchronizing traffic costs
			// more than ordinary misses (Appendix A).
			fp.AtomicCost = 1.5 * fp.MissCost
		}
	}
	return fp, nil
}

// probeHitMiss measures the charge of a cold miss and of a cache hit: n
// distinct data accessed twice each on one processor. First touches are
// all cold misses, second touches all hits, so the two constants solve
// directly from the cost totals.
func probeHitMiss(n int) (hit, miss float64, err error) {
	m, err := cachesim.New(cachesim.DefaultConfig(1))
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < n; i++ {
		m.AccessDatum(0, "cal", []int64{int64(i)}, false, false)
	}
	missCost := m.Finish().Cost
	for i := 0; i < n; i++ {
		m.AccessDatum(0, "cal", []int64{int64(i)}, false, false)
	}
	total := m.Finish()
	if total.Misses() != int64(n) {
		return 0, 0, fmt.Errorf("autotune: hit/miss probe saw %d misses for %d cold touches", total.Misses(), n)
	}
	miss = missCost / float64(n)
	hit = (total.Cost - missCost) / float64(n)
	return hit, miss, nil
}

// probeAtomic measures the charge of a synchronizing miss: n distinct
// data, one atomic accumulate each.
func probeAtomic(n int) (float64, error) {
	m, err := cachesim.New(cachesim.DefaultConfig(1))
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		m.AccessDatum(0, "cal", []int64{int64(i)}, true, true)
	}
	return m.Finish().Cost / float64(n), nil
}

// probeMesh measures the distributed-memory constants: on a mesh of p
// nodes, processor 0 cold-misses one datum homed at every node. The cost
// of the hops=0 fill is LocalMem; remote fills are affine in the hop
// count, so RemoteBase and PerHop solve from the nearest and farthest
// remote nodes.
func probeMesh(p int) (local, remoteBase, perHop float64, err error) {
	mesh, err := machine.SquarishMesh(p)
	if err != nil {
		return 0, 0, 0, err
	}
	cost := machine.DefaultCostModel()
	costAt := make(map[int]float64) // hops → observed per-miss cost
	for home := 0; home < p; home++ {
		cfg := cachesim.DefaultConfig(1)
		h := home
		cfg.MissCost = func(proc int, datum string, atomic bool) (float64, int64) {
			return cost.MissCost(mesh, proc, h, atomic)
		}
		m, err := cachesim.New(cfg)
		if err != nil {
			return 0, 0, 0, err
		}
		m.AccessDatum(0, "cal", []int64{int64(home)}, false, false)
		met := m.Finish()
		costAt[mesh.Hops(0, home)] = met.Cost
	}
	local, ok := costAt[0]
	if !ok {
		return 0, 0, 0, fmt.Errorf("autotune: mesh probe saw no local fill")
	}
	// Two distinct remote distances pin the affine remote cost.
	minH, maxH := -1, -1
	for h := range costAt {
		if h == 0 {
			continue
		}
		if minH < 0 || h < minH {
			minH = h
		}
		if h > maxH {
			maxH = h
		}
	}
	if minH < 0 {
		return local, local, 0, nil // single-node mesh: nothing is remote
	}
	if maxH > minH {
		perHop = (costAt[maxH] - costAt[minH]) / float64(maxH-minH)
	}
	remoteBase = costAt[minH] - perHop*float64(minH)
	return local, remoteBase, perHop, nil
}

// hostProbeElems sizes the host stride probe's working set: large enough
// to defeat any last-level cache (32 Mi float64 = 256 MiB would be too
// hungry; 1<<22 elements = 32 MiB exceeds typical LLCs).
const hostProbeElems = 1 << 22

// probeHostLine estimates the cache-line size in float64 elements by the
// classic stride sweep over an array far larger than the LLC. While the
// stride stays within one line, doubling it halves the touches but still
// fetches every line, so per-touch time roughly doubles; once the stride
// exceeds the line, doubling it also halves the lines fetched and the
// per-touch time flattens. The knee — the last stride whose doubling
// still grew per-touch time by ≥1.4× — is the line size.
func probeHostLine() int64 {
	data := make([]float64, hostProbeElems)
	var sink float64
	timePerTouch := func(stride int64) float64 {
		start := time.Now()
		for i := int64(0); i < hostProbeElems; i += stride {
			sink += data[i]
		}
		return float64(time.Since(start)) / float64(hostProbeElems/stride)
	}
	timePerTouch(1) // warm the page tables
	prev := timePerTouch(1)
	line := int64(1)
	for stride := int64(2); stride <= 64; stride <<= 1 {
		cur := timePerTouch(stride)
		if cur < 1.4*prev {
			break
		}
		line = stride
		prev = cur
	}
	if sink == 0 { // defeat dead-code elimination without polluting output
		return line
	}
	return line
}

// probeHostMissRatio estimates the miss:hit cost ratio: time a pass that
// streams the huge array (all misses) against repeated passes over a
// small array (all hits after the first).
func probeHostMissRatio() float64 {
	big := make([]float64, hostProbeElems)
	small := make([]float64, 1<<12)
	var sink float64
	start := time.Now()
	for i := range big {
		sink += big[i]
	}
	missPer := float64(time.Since(start)) / float64(len(big))
	start = time.Now()
	const passes = 1 << 10
	for p := 0; p < passes; p++ {
		for i := range small {
			sink += small[i]
		}
	}
	hitPer := float64(time.Since(start)) / float64(passes*len(small))
	_ = sink
	if hitPer <= 0 {
		return 1
	}
	ratio := missPer / hitPer
	if ratio < 1 {
		ratio = 1
	}
	return ratio
}
