package partition

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"looppart/internal/obs"
	"looppart/internal/paperex"
	"looppart/internal/telemetry"
)

// Nests with a class whose reduced G is not square, so every candidate
// scores through the exact-enumeration fallback (§3.8's hard cases).
const (
	enumRect3D = "doall (i0, 1, 16)\n doall (i1, 1, 16)\n  doall (i2, 1, 16)\n   A[2*i0 - 2*i2 - 2] = A[2*i0 - 2*i2] + B[i0, i1, i2]\n  enddoall\n enddoall\nenddoall"
	enumSkew2D = "doall (i, 1, 32)\n doall (j, 1, 32)\n  A[i + j] = A[i + j + 1] + A[i + j - 2] + B[i, j]\n enddoall\nenddoall"
)

// TestEnumeratedSearchConcurrent runs enumerated searches from many
// goroutines at forced pool sizes: the pooled bitsets of the image
// counter are shared process-wide, so concurrent searches must neither
// race (run under -race) nor perturb one another's plans.
func TestEnumeratedSearchConcurrent(t *testing.T) {
	rectA := analyze(t, enumRect3D, nil)
	skewA := analyze(t, enumSkew2D, nil)

	prev := SetSearchWorkers(1)
	defer SetSearchWorkers(prev)
	wantRect, err := OptimizeRect(context.Background(), rectA, 8)
	if err != nil {
		t.Fatal(err)
	}
	wantSkew, err := OptimizeSkew(context.Background(), skewA, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wantRect.Exactness.String() != "enumerated" || wantSkew.Exactness.String() != "enumerated" {
		t.Fatalf("plans are %v / %v; the test needs enumerated classes", wantRect.Exactness, wantSkew.Exactness)
	}

	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		SetSearchWorkers(workers)
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rect, err := OptimizeRect(context.Background(), rectA, 8)
				if err != nil || !reflect.DeepEqual(rect, wantRect) {
					t.Errorf("workers=%d: OptimizeRect = %+v, %v; want %+v", workers, rect, err, wantRect)
				}
				skew, err := OptimizeSkew(context.Background(), skewA, 8, 2)
				if err != nil || !reflect.DeepEqual(skew, wantSkew) {
					t.Errorf("workers=%d: OptimizeSkew = %+v, %v; want %+v", workers, skew, err, wantSkew)
				}
			}()
		}
		wg.Wait()
	}
}

// The search spans and the registry name the enumeration work: nonzero
// enum_points for an enumerated search, zero for a closed-form one.
func TestSearchReportsEnumPoints(t *testing.T) {
	reg := telemetry.New()
	prevReg := telemetry.SetActive(reg)
	defer telemetry.SetActive(prevReg)

	cases := []struct {
		name, src string
		params    map[string]int64
		span      string
		enum      bool
	}{
		{"rect enumerated", enumRect3D, nil, "search.rect", true},
		{"rect closed form", paperex.Example8, map[string]int64{"N": 24}, "search.rect", false},
		{"skew enumerated", enumSkew2D, nil, "search.skewed", true},
	}
	for _, tc := range cases {
		a := analyze(t, tc.src, tc.params)
		tr := obs.NewTrace("", "root")
		ctx := obs.WithTrace(context.Background(), tr)
		before := reg.Counter("partition.enum_points").Value()
		var err error
		if tc.span == "search.rect" {
			_, err = OptimizeRect(ctx, a, 8)
		} else {
			_, err = OptimizeSkew(ctx, a, 8, 2)
		}
		if err != nil {
			t.Fatal(err)
		}
		var got int64 = -1
		for _, sp := range tr.Root().Snapshot().Children {
			if sp.Name == tc.span {
				got, _ = sp.Attrs["enum_points"].(int64)
			}
		}
		counted := reg.Counter("partition.enum_points").Value() - before
		if (got > 0) != tc.enum || got != counted {
			t.Errorf("%s: %s enum_points = %d, partition.enum_points += %d; want equal and nonzero=%v",
				tc.name, tc.span, got, counted, tc.enum)
		}
	}
}
