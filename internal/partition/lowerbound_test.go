package partition

import (
	"context"
	"testing"

	"looppart/internal/footprint"
	"looppart/internal/loopir"
)

func lbAnalyze(t *testing.T, src string, params map[string]int64) *footprint.Analysis {
	t.Helper()
	n, err := loopir.Parse(src, params)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a, err := footprint.Analyze(n)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return a
}

// The closed forms must agree with direct enumeration everywhere: they
// are what makes the bound exact, so any divergence is a soundness bug.
func TestCrossCountMatchesEnumeration(t *testing.T) {
	for n := int64(1); n <= 24; n++ {
		for e := int64(1); e <= n+2; e++ {
			for d := -n - 1; d <= n+1; d++ {
				var want int64
				for x := int64(0); x < n; x++ {
					y := x + d
					if y >= 0 && y < n && x/e != y/e {
						want++
					}
				}
				if got := crossCount(n, e, d); got != want {
					t.Fatalf("crossCount(%d,%d,%d) = %d, want %d", n, e, d, got, want)
				}
			}
		}
	}
}

func TestInteriorCountMatchesEnumeration(t *testing.T) {
	for n := int64(1); n <= 24; n++ {
		for e := int64(1); e <= n+2; e++ {
			for s := int64(0); s <= e+1; s++ {
				var want int64
				for x := int64(0); x < n; x++ {
					chunk := x / e
					lo := chunk * e
					hi := lo + e - 1
					if hi > n-1 {
						hi = n - 1
					}
					if x-lo >= s && hi-x >= s {
						want++
					}
				}
				if got := interiorCount(n, e, s); got != want {
					t.Fatalf("interiorCount(%d,%d,%d) = %d, want %d", n, e, s, got, want)
				}
			}
		}
	}
}

// A 1-D unit stencil over 4 processors: exactly the three chunk-boundary
// elements must cross, and the bound is exact.
func TestCommLowerBoundUnitStencil(t *testing.T) {
	a := lbAnalyze(t, `
doall (i, 0, 63)
  A[i] = A[i-1]
enddoall
`, nil)
	lb, err := CommLowerBound(a, 4)
	if err != nil {
		t.Fatalf("CommLowerBound: %v", err)
	}
	if lb.Classes != 1 {
		t.Fatalf("qualifying classes = %d, want 1", lb.Classes)
	}
	if lb.Words != 3 {
		t.Fatalf("bound = %d, want 3 (one element per internal chunk boundary)", lb.Words)
	}
	if len(lb.Grid) != 1 || lb.Grid[0] != 4 || lb.Ext[0] != 16 {
		t.Fatalf("grid/ext = %v/%v, want [4]/[16]", lb.Grid, lb.Ext)
	}
}

// A 2-D stencil: the argmin grid must be the one splitting only along
// the communication-free dimension, driving the bound to zero.
func TestCommLowerBoundPrefersCommFreeAxis(t *testing.T) {
	a := lbAnalyze(t, `
doall (i, 0, 31)
  doall (j, 0, 31)
    A[i,j] = A[i,j-1]
  enddoall
enddoall
`, nil)
	lb, err := CommLowerBound(a, 4)
	if err != nil {
		t.Fatalf("CommLowerBound: %v", err)
	}
	// Splitting along i alone communicates nothing: the j-offset stencil
	// never crosses an i boundary.
	if lb.Words != 0 {
		t.Fatalf("bound = %d, want 0 via the (4,1) grid", lb.Words)
	}
	if lb.Grid[0] != 4 || lb.Grid[1] != 1 {
		t.Fatalf("argmin grid = %v, want [4 1]", lb.Grid)
	}
}

// Read-only and write-only classes have no chargeable structure: the
// bound must be zero with no qualifying classes, and the family must
// degrade to the footprint-optimal rectangle.
func TestCommLowerBoundNoStructure(t *testing.T) {
	a := lbAnalyze(t, `
doall (i, 1, 32)
  doall (j, 1, 32)
    A[i,j] = B[i,j] + B[i+1,j+3]
  enddoall
enddoall
`, nil)
	lb, err := CommLowerBound(a, 4)
	if err != nil {
		t.Fatalf("CommLowerBound: %v", err)
	}
	if lb.Classes != 0 || lb.Words != 0 {
		t.Fatalf("bound = %+v, want zero with no qualifying classes", lb)
	}

	fam, ok := Lookup("lowerbound")
	if !ok {
		t.Fatal("lowerbound family not registered")
	}
	got, err := fam.Optimize(context.Background(), a, 4)
	if err != nil {
		t.Fatalf("lowerbound optimize: %v", err)
	}
	want, err := rectFamily{}.Optimize(context.Background(), a, 4)
	if err != nil {
		t.Fatalf("rect optimize: %v", err)
	}
	if !eqVec(got.Tile.Extents(), want.Tile.Extents()) {
		t.Fatalf("fallback plan %v, want rect plan %v", got.Tile, want.Tile)
	}
}

// The lower bound must never exceed the rect plan's exact communication:
// bound(P) minimizes over the same grid family the rect search draws
// from. Checked structurally here (grid is a factorization, extents are
// the induced ones); the full corpus sandwich against measured comm-set
// words lives in internal/verify.
func TestCommLowerBoundGridIsFromRectFamily(t *testing.T) {
	a := lbAnalyze(t, `
doall (i, 0, 23)
  doall (j, 0, 23)
    A[i,j] = A[i-1,j] + A[i,j-1]
  enddoall
enddoall
`, nil)
	for _, procs := range []int{1, 2, 4, 16} {
		lb, err := CommLowerBound(a, procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		var prod int64 = 1
		for _, g := range lb.Grid {
			prod *= g
		}
		if prod != int64(procs) {
			t.Fatalf("procs=%d: grid %v does not multiply to P", procs, lb.Grid)
		}
		if procs == 1 && lb.Words != 0 {
			t.Fatalf("single processor must bound at zero, got %d", lb.Words)
		}
		if procs > 1 && lb.Words <= 0 {
			t.Fatalf("procs=%d: diagonal stencil must communicate, bound = %d", procs, lb.Words)
		}
	}
}

// The comm-optimal contestant must join the tournament candidates when
// its extents are not already among the rect top-K.
func TestLowerBoundTopKAppendsCommOptimal(t *testing.T) {
	a := lbAnalyze(t, `
doall (i, 0, 31)
  doall (j, 0, 31)
    A[i,j] = A[i,j-1]
  enddoall
enddoall
`, nil)
	fam, _ := Lookup("lowerbound")
	plans, err := fam.TopK(a, 4, 2, TopKOptions{})
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	lb, err := CommLowerBound(a, 4)
	if err != nil {
		t.Fatalf("CommLowerBound: %v", err)
	}
	found := false
	for _, p := range plans {
		if eqVec(p.Tile.Extents(), lb.Ext) {
			found = true
		}
	}
	if !found {
		t.Fatalf("comm-optimal extents %v missing from top-K %d plans", lb.Ext, len(plans))
	}
}
