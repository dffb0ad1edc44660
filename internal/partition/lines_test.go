package partition

import (
	"context"
	"testing"

	"looppart/internal/layout"
	"looppart/internal/paperex"
	"looppart/internal/tile"
)

func TestOptimizeRectLinesUnitMatchesPlain(t *testing.T) {
	// With unit lines the line-aware optimizer must make the same choice
	// as the element-granular one (same objective up to the exact-vs-
	// linearized difference for 2-ref classes, which does not move the
	// argmin on this symmetric stencil).
	src := `
doall (i, 1, 32)
  doall (j, 1, 32)
    B[i,j] = B[i-2,j] + B[i,j-2]
  enddoall
enddoall`
	a := analyze(t, src, nil)
	plain, err := OptimizeRect(context.Background(), a, 16)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := OptimizeRectLines(a, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := range plain.Ext {
		if plain.Ext[k] != lines.Ext[k] {
			t.Fatalf("unit-line plan %v differs from plain %v", lines.Ext, plain.Ext)
		}
	}
}

func TestOptimizeRectLinesElongatesStorageOrder(t *testing.T) {
	// A symmetric stencil wants square tiles at unit lines; long lines
	// make the storage-order (j) dimension cheaper, so the optimum
	// elongates along j.
	src := `
doall (i, 1, 64)
  doall (j, 1, 64)
    A[i,j] = B[i-2,j] + B[i+2,j] + B[i,j-2] + B[i,j+2]
  enddoall
enddoall`
	a := analyze(t, src, nil)
	unit, err := OptimizeRectLines(a, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	long, err := OptimizeRectLines(a, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if unit.Ext[0] != unit.Ext[1] {
		t.Fatalf("unit-line optimum %v should be square", unit.Ext)
	}
	if long.Ext[1] <= long.Ext[0] {
		t.Fatalf("long-line optimum %v should elongate along storage order", long.Ext)
	}
}

func TestOptimizeRectLinesErrors(t *testing.T) {
	a := analyze(t, paperex.Example2, nil)
	if _, err := OptimizeRectLines(a, 100, 0); err == nil {
		t.Fatal("line size 0 accepted")
	}
	if _, err := OptimizeRectLines(a, 0, 4); err == nil {
		t.Fatal("0 procs accepted")
	}
}

func TestLineFootprintFallbackForNonIdentity(t *testing.T) {
	// Example 2's B class (G non-identity) takes the enumeration path;
	// the score at unit lines equals the exact element footprint.
	a := analyze(t, paperex.Example2, nil)
	space := tile.BoundsOf(a.Nest)
	mm, err := layout.MapNest(a.Nest, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LineFootprint(a, []int64{10, 10}, 1, mm, space)
	if err != nil {
		t.Fatal(err)
	}
	// A class: 100 (identity model); B class: 140 (exact enumeration).
	if got != 240 {
		t.Fatalf("line footprint = %v, want 240", got)
	}
}

func TestOptimizeRectLinesExample2(t *testing.T) {
	// The column-strip optimum survives the line extension at line size
	// 1 and remains at least as good as blocks at larger lines.
	a := analyze(t, paperex.Example2, nil)
	plan, err := OptimizeRectLines(a, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	space := tile.BoundsOf(a.Nest)
	mm, err := layout.MapNest(a.Nest, 4)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := LineFootprint(a, []int64{10, 10}, 4, mm, space)
	if err != nil {
		t.Fatal(err)
	}
	if plan.PredictedFootprint > blocks {
		t.Fatalf("optimizer %v (%v) worse than blocks %v", plan.PredictedFootprint, plan.Ext, blocks)
	}
}

func BenchmarkOptimizeRectLines(b *testing.B) {
	a := analyze(b, paperex.Example2, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OptimizeRectLines(a, 100, 8); err != nil {
			b.Fatal(err)
		}
	}
}
