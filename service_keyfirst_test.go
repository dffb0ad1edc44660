package looppart

import (
	"context"
	"testing"

	"looppart/internal/paperex"
	"looppart/internal/telemetry"
)

// The serving front end keys before it analyzes: parse → canonical key →
// cache lookup, with the reference analysis only inside the singleflight
// owner. These tests pin what that ordering promises.

var keyFirstReq = PlanRequest{
	Source: paperex.Example8, Params: map[string]int64{"N": 24},
	Procs: 64, Strategy: "skewed",
}

// withRegistry runs fn with a private telemetry registry installed and
// returns it.
func withRegistry(t *testing.T, fn func()) *telemetry.Registry {
	t.Helper()
	reg := telemetry.New()
	prev := telemetry.SetActive(reg)
	defer telemetry.SetActive(prev)
	fn()
	return reg
}

func countSpans(reg *telemetry.Registry, name string) int {
	n := 0
	for _, sp := range reg.Spans() {
		if sp.Name == name {
			n++
		}
	}
	return n
}

func TestServiceHitSkipsAnalysis(t *testing.T) {
	svc := NewService(ServiceOptions{})
	miss := withRegistry(t, func() {
		if _, err := svc.Plan(context.Background(), keyFirstReq); err != nil {
			t.Fatal(err)
		}
	})
	if got := countSpans(miss, "analyze"); got != 1 {
		t.Fatalf("the miss ran %d analyze spans, want 1", got)
	}
	if got := len(miss.EventsOfKind("analysis.class")); got == 0 {
		t.Error("the miss emitted no analysis.class events")
	}
	hits := withRegistry(t, func() {
		for i := 0; i < 3; i++ {
			resp, err := svc.Plan(context.Background(), keyFirstReq)
			if err != nil {
				t.Fatal(err)
			}
			if !resp.Hit() {
				t.Fatalf("request %d: status %q, want a hit", i, resp.Status)
			}
		}
	})
	if got := countSpans(hits, "analyze"); got != 0 {
		t.Errorf("warmed hits ran %d analyze spans, want 0", got)
	}
	if got := countSpans(hits, "parse"); got != 3 {
		t.Errorf("warmed hits ran %d parse spans, want 3", got)
	}
	if got := len(hits.EventsOfKind("analysis.class")); got != 0 {
		t.Errorf("warmed hits emitted %d analysis.class events, want 0", got)
	}
}

// TestServiceLateMissServesFinishedFlight pins the lost race between a
// cache miss and singleflight Do: a flight for the same key that finishes
// (and releases its slot) in between must be served, not searched again.
func TestServiceLateMissServesFinishedFlight(t *testing.T) {
	svc := NewService(ServiceOptions{})
	raced := false
	svc.beforeFlight = func(string) {
		if raced {
			return
		}
		raced = true
		// Another request for the key runs its whole flight now, after
		// this caller's lookups missed and before its Do.
		if _, err := svc.Plan(context.Background(), keyFirstReq); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := svc.Plan(context.Background(), keyFirstReq)
	if err != nil {
		t.Fatal(err)
	}
	if !raced {
		t.Fatal("the seam never ran")
	}
	if resp.Status != "hit" {
		t.Errorf("late caller status %q, want hit", resp.Status)
	}
	st := svc.Stats()
	if st.Searches != 1 {
		t.Errorf("Searches = %d, want 1", st.Searches)
	}
	if st.CacheHits != 1 || st.Requests != 2 {
		t.Errorf("stats = %+v, want 2 requests and 1 cache hit", st)
	}
	if st.Cache.Misses != 2 {
		t.Errorf("cache misses = %d, want 2 (the re-check must not count one)", st.Cache.Misses)
	}
}

// TestServiceAnalysisErrorNotCached: a nest that parses (so it has a key)
// but fails the reference analysis must fail identically every time and
// never reach the cache.
func TestServiceAnalysisErrorNotCached(t *testing.T) {
	svc := NewService(ServiceOptions{})
	req := PlanRequest{Source: `
doseq (t, 1, 4)
  doall (i, 1, 16)
    A[i + t] = A[i]
  enddoall
enddoseq`, Procs: 4, Strategy: "rect"}
	var errs []string
	for i := 0; i < 2; i++ {
		if _, err := svc.Plan(context.Background(), req); err == nil {
			t.Fatalf("request %d planned a nest with a doseq variable in a subscript", i)
		} else {
			errs = append(errs, err.Error())
		}
	}
	if errs[0] != errs[1] {
		t.Errorf("errors differ:\n%s\n%s", errs[0], errs[1])
	}
	st := svc.Stats()
	if st.Errors != 2 || st.Searches != 0 || st.CacheHits != 0 || st.Cache.Entries != 0 {
		t.Errorf("stats = %+v, want 2 errors and nothing searched or cached", st)
	}
}

// TestServicePlanHitAllocs guards the hit path's allocation budget.
func TestServicePlanHitAllocs(t *testing.T) {
	svc := NewService(ServiceOptions{})
	if _, err := svc.Plan(context.Background(), keyFirstReq); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		resp, err := svc.Plan(context.Background(), keyFirstReq)
		if err != nil || !resp.Hit() {
			t.Fatalf("hit failed: %v", err)
		}
	})
	const budget = 150
	if allocs > budget {
		t.Errorf("a Service.Plan hit allocates %.0f times, budget %d", allocs, budget)
	}
}
