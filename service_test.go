package looppart_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"looppart"
	"looppart/internal/paperex"
)

var serviceNest = `
doall (i, 1, 64)
  doall (j, 1, 64)
    A[i,j] = B[i,j] + B[i+1,j+3]
  enddoall
enddoall
`

func TestServicePlanHitIsBitIdentical(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	req := looppart.PlanRequest{Source: serviceNest, Procs: 16, Strategy: "rect"}

	first, err := svc.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != "miss" {
		t.Errorf("first status = %q, want miss", first.Status)
	}
	second, err := svc.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Status != "hit" {
		t.Errorf("second status = %q, want hit", second.Status)
	}
	if !bytes.Equal(first.Raw, second.Raw) {
		t.Errorf("hit bytes differ from miss bytes:\n%s\nvs\n%s", first.Raw, second.Raw)
	}
	st := svc.Stats()
	if st.Searches != 1 || st.CacheHits != 1 || st.Requests != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestServiceCanonicalizationSharesEntries(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	renamed := strings.NewReplacer("i,", "row,", "[i", "[row", "j", "col").Replace(serviceNest)
	reordered := strings.Replace(serviceNest, "B[i,j] + B[i+1,j+3]", "B[i+1,j+3] + B[i,j]", 1)

	base, err := svc.Plan(context.Background(), looppart.PlanRequest{Source: serviceNest, Procs: 16})
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{"renamed indices": renamed, "reordered refs": reordered} {
		resp, err := svc.Plan(context.Background(), looppart.PlanRequest{Source: src, Procs: 16})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.Status != "hit" {
			t.Errorf("%s: status = %q, want hit (key %s vs %s)", name, resp.Status, resp.Key, base.Key)
		}
		if !bytes.Equal(resp.Raw, base.Raw) {
			t.Errorf("%s: bytes differ", name)
		}
	}
	if st := svc.Stats(); st.Searches != 1 {
		t.Errorf("searches = %d, want 1", st.Searches)
	}
}

// TestServiceRenderedMatchesLibrary pins the acceptance criterion: the
// served plan line is bit-identical to what the library (and therefore
// cmd/looppart) prints for the same nest/procs/strategy.
func TestServiceRenderedMatchesLibrary(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	for _, tc := range []struct {
		name, src, strategy string
		params              map[string]int64
		procs               int
	}{
		{"example2/auto", paperex.Example2, "auto", nil, 16},
		{"example3/rect", paperex.Example3, "rect", map[string]int64{"N": 64}, 16},
		{"example8/rect", paperex.Example8, "rect", map[string]int64{"N": 32}, 64},
		{"example8/skewed", paperex.Example8, "skewed", map[string]int64{"N": 32}, 16},
		{"example10/auto", paperex.Example10, "auto", map[string]int64{"N": 64}, 16},
	} {
		resp, err := svc.Plan(context.Background(), looppart.PlanRequest{
			Source: tc.src, Params: tc.params, Procs: tc.procs, Strategy: tc.strategy,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		prog, err := looppart.Parse(tc.src, tc.params)
		if err != nil {
			t.Fatal(err)
		}
		strategy, _ := looppart.ParseStrategy(tc.strategy)
		plan, err := prog.Partition(context.Background(), tc.procs, strategy)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result.Rendered != plan.String() {
			t.Errorf("%s: served %q != library %q", tc.name, resp.Result.Rendered, plan.String())
		}
		if want := looppart.CanonicalKey(prog, tc.procs, strategy); resp.Key != want {
			t.Errorf("%s: key %q != CanonicalKey %q", tc.name, resp.Key, want)
		}
	}
}

func TestServiceExplain(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	req := looppart.PlanRequest{Source: serviceNest, Procs: 16, Strategy: "rect"}
	resp, trace, err := svc.Explain(req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace, "partition.rect.chosen") {
		t.Errorf("trace lacks the chosen-shape event:\n%s", trace)
	}
	// The explain run fills the cache with the same bytes the normal
	// path would serve.
	cached, err := svc.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Status != "hit" || !bytes.Equal(cached.Raw, resp.Raw) {
		t.Errorf("explain did not prime the cache identically (status %s)", cached.Status)
	}
}

func TestServiceErrorsNotCached(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	// The synchronizing matmul has no communication-free partition, so
	// comm-free fails.
	req := looppart.PlanRequest{
		Source: paperex.MatmulSync, Params: map[string]int64{"N": 16},
		Procs: 16, Strategy: "comm-free",
	}
	for i := 0; i < 2; i++ {
		if _, err := svc.Plan(context.Background(), req); err == nil {
			t.Fatalf("request %d: expected error", i)
		}
	}
	st := svc.Stats()
	if st.Errors != 2 || st.Searches != 2 {
		t.Errorf("stats = %+v (errors must not be cached)", st)
	}

	if _, err := svc.Plan(context.Background(), looppart.PlanRequest{Source: serviceNest, Procs: 0}); err == nil {
		t.Error("procs 0 accepted")
	}
	if _, err := svc.Plan(context.Background(), looppart.PlanRequest{Source: serviceNest, Procs: 4, Strategy: "nope"}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := svc.Plan(context.Background(), looppart.PlanRequest{Source: "not a loop", Procs: 4}); err == nil {
		t.Error("parse error accepted")
	}
}

func TestParseStrategy(t *testing.T) {
	for _, s := range []looppart.Strategy{
		looppart.Auto, looppart.Rect, looppart.Skewed, looppart.CommFree,
		looppart.Rows, looppart.Columns, looppart.Blocks, looppart.AbrahamHudak,
	} {
		got, ok := looppart.ParseStrategy(s.String())
		if !ok || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, ok)
		}
	}
	if _, ok := looppart.ParseStrategy("unknown"); ok {
		t.Error("ParseStrategy accepted an unknown name")
	}
}

// TestServiceDecodedHitMatchesMiss pins the decoded-alongside-bytes cache
// contract: a hit's Result (served from the cache's decoded entry, no
// per-hit JSON parse) must equal the miss's Result and re-encode to the
// exact cached bytes — and each response must own its Result struct, so
// a caller reassigning fields cannot corrupt later hits.
func TestServiceDecodedHitMatchesMiss(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	req := looppart.PlanRequest{Source: serviceNest, Procs: 16, Strategy: "rect"}

	miss, err := svc.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := svc.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Status != "hit" {
		t.Fatalf("second status = %q, want hit", hit.Status)
	}
	if !reflect.DeepEqual(miss.Result, hit.Result) {
		t.Errorf("hit result %+v != miss result %+v", hit.Result, miss.Result)
	}
	if hit.Result == miss.Result {
		t.Error("hit and miss share one Result struct; responses must own theirs")
	}

	// Clobber the hit's Result struct; the next hit must be pristine.
	hit.Result.Rendered = "clobbered"
	hit.Result.Procs = -1
	again, err := svc.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(miss.Result, again.Result) {
		t.Errorf("a caller's write leaked into the cache: %+v", again.Result)
	}
	if !bytes.Equal(miss.Raw, again.Raw) {
		t.Error("raw bytes drifted across hits")
	}
}
