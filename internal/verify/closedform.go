package verify

import (
	"context"
	"fmt"
	"reflect"

	"looppart/internal/footprint"
	"looppart/internal/partition"
	"looppart/internal/telemetry"
)

// Closed-form differential check: the analytic rectangular fast path
// (partition/closedform.go) claims its plans are byte-identical to the
// enumerative argmin, in domain and out. DiffClosedForm runs both sides
// of that claim for one analysis and compares the plans structurally —
// grid, extents, footprint bits, exactness, traffic — which is exactly
// what the canonical JSON encoding serializes, so structural equality
// here is byte identity at the serving layer.

// DiffClosedForm partitions a on procs processors twice — once with the
// closed-form fast path enabled, once forced onto the enumerative search
// — and returns an error unless the two plans (or the two errors) are
// identical. hit reports which branch the enabled run took: true when
// the analytic path served the plan, false when it fell back.
//
// The check temporarily installs a private telemetry registry (to read
// the partition.closedform.{hits,fallbacks} counters) and toggles the
// process-wide fast-path switch, so callers must not run concurrent
// planning — the same contract as Service.Explain.
func DiffClosedForm(a *footprint.Analysis, procs int) (hit bool, err error) {
	reg := telemetry.New()
	prev := telemetry.SetActive(reg)
	defer telemetry.SetActive(prev)

	wasDisabled := partition.SetClosedFormDisabled(false)
	defer partition.SetClosedFormDisabled(wasDisabled)
	fast, fastErr := partition.OptimizeRect(context.Background(), a, procs)
	hits := reg.Counter("partition.closedform.hits").Value()
	fallbacks := reg.Counter("partition.closedform.fallbacks").Value()
	hit = hits > 0

	partition.SetClosedFormDisabled(true)
	oracle, oracleErr := partition.OptimizeRect(context.Background(), a, procs)

	if (fastErr == nil) != (oracleErr == nil) {
		return hit, fmt.Errorf("verify: closed-form error mismatch: %v vs enumerated %v", fastErr, oracleErr)
	}
	if fastErr != nil {
		if fastErr.Error() != oracleErr.Error() {
			return hit, fmt.Errorf("verify: closed-form error %q != enumerated %q", fastErr, oracleErr)
		}
		return hit, nil
	}
	if hits+fallbacks != 1 {
		return hit, fmt.Errorf("verify: closed-form path took %d hits and %d fallbacks for one search (want exactly one branch)", hits, fallbacks)
	}
	if !reflect.DeepEqual(fast, oracle) {
		return hit, fmt.Errorf("verify: closed-form plan %+v != enumerated argmin %+v", fast, oracle)
	}
	return hit, nil
}

// DiffClosedFormNest is DiffClosedForm from loopir source text. Parse or
// analysis errors are returned as-is (random-corpus drivers treat them as
// "nest rejected"); a plan mismatch is a verification failure.
func DiffClosedFormNest(src string, procs int) (hit bool, err error) {
	a, err := analyzeSource(src)
	if err != nil {
		return false, err
	}
	return DiffClosedForm(a, procs)
}
