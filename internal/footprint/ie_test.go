package footprint

import (
	"math/rand"
	"testing"

	"looppart/internal/intmat"
	"looppart/internal/paperex"
)

func TestBoundsBracketExactRandom(t *testing.T) {
	// Property: lower ≤ exact ≤ upper for random multi-reference classes
	// on unimodular lattices.
	rng := rand.New(rand.NewSource(808))
	gs := []intmat.Mat{
		intmat.Identity(2),
		intmat.FromRows([][]int64{{1, 0}, {1, 1}}),
		intmat.FromRows([][]int64{{1, 1}, {1, -1}}), // det −2
		intmat.FromRows([][]int64{{2, 1}, {1, 1}}),
	}
	for trial := 0; trial < 300; trial++ {
		g := gs[rng.Intn(len(gs))]
		k := 2 + rng.Intn(4)
		refs := make([]Ref, k)
		for i := range refs {
			u := []int64{int64(rng.Intn(7) - 3), int64(rng.Intn(7) - 3)}
			refs[i] = Ref{Array: "A", G: g, A: g.MulVec(u)}
		}
		c := newClass("A", g, refs)
		ext := []int64{int64(rng.Intn(6) + 3), int64(rng.Intn(6) + 3)}
		lo, hi, ok := c.RectFootprintBounds(ext)
		if !ok {
			t.Fatalf("trial %d: bounds refused", trial)
		}
		exact := float64(oracleRect(c, ext))
		if exact < lo-1e-9 || exact > hi+1e-9 {
			t.Fatalf("trial %d: exact %v outside [%v, %v] (G=%v refs=%v ext=%v)",
				trial, exact, lo, hi, g, refs, ext)
		}
	}
}

func TestBoundsSinglePairMatchLemma3(t *testing.T) {
	// For two references the bounds collapse to the exact Lemma 3 union.
	a := analyze(t, paperex.Example10, map[string]int64{"N": 40})
	b := classOf(t, a, "B", 2)
	for _, ext := range [][]int64{{6, 6}, {9, 4}, {4, 9}} {
		lo, hi, ok := b.RectFootprintBounds(ext)
		if !ok {
			t.Fatal("refused")
		}
		exact := float64(oracleRect(b, ext))
		if lo != exact || hi != exact {
			t.Fatalf("ext %v: bounds [%v,%v] != exact %v", ext, lo, hi, exact)
		}
	}
}

func TestRefinedBeatsLinearizedOnCorners(t *testing.T) {
	// Adversarial 4-corner class (offsets at the corners of a square):
	// the spread model undercounts; the refined estimate must be closer.
	g := intmat.Identity(2)
	refs := []Ref{
		{Array: "A", G: g, A: []int64{0, 0}},
		{Array: "A", G: g, A: []int64{3, 0}},
		{Array: "A", G: g, A: []int64{0, 3}},
		{Array: "A", G: g, A: []int64{3, 3}},
	}
	c := newClass("A", g, refs)
	ext := []int64{5, 5}
	exact := float64(oracleRect(c, ext))
	lin, _ := c.RectFootprintLinearized(ext)
	ref, _ := c.RectFootprintRefined(ext)
	errLin := absf(lin - exact)
	errRef := absf(ref - exact)
	if errRef > errLin {
		t.Fatalf("refined error %v worse than linearized %v (exact %v, lin %v, ref %v)",
			errRef, errLin, exact, lin, ref)
	}
	// And the bounds bracket.
	lo, hi, ok := c.RectFootprintBounds(ext)
	if !ok || exact < lo || exact > hi {
		t.Fatalf("exact %v outside [%v,%v]", exact, lo, hi)
	}
}

func TestRefinedFallsBackWithoutClosedForm(t *testing.T) {
	// A[i+j]: no square reduced G → falls back to enumeration.
	a := analyze(t, `
doall (i, 1, 16)
  doall (j, 1, 16)
    B[i,j] = A[i+j]
  enddoall
enddoall`, nil)
	c := classOf(t, a, "A", 1)
	got, ex := c.RectFootprintRefined([]int64{4, 6})
	if ex != Enumerated || got != 9 {
		t.Fatalf("refined = %v (%v)", got, ex)
	}
	if _, _, ok := c.RectFootprintBounds([]int64{4, 6}); ok {
		t.Fatal("bounds should refuse non-square reduced G")
	}
}

func TestBoundsSingleRef(t *testing.T) {
	a := analyze(t, paperex.Example2, nil)
	cls := classOf(t, a, "A", 1)
	lo, hi, ok := cls.RectFootprintBounds([]int64{10, 10})
	if !ok || lo != 100 || hi != 100 {
		t.Fatalf("bounds = [%v,%v] ok=%v", lo, hi, ok)
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func BenchmarkRectFootprintBounds(b *testing.B) {
	g := intmat.Identity(2)
	refs := []Ref{
		{Array: "A", G: g, A: []int64{0, 0}},
		{Array: "A", G: g, A: []int64{3, 0}},
		{Array: "A", G: g, A: []int64{0, 3}},
		{Array: "A", G: g, A: []int64{3, 3}},
	}
	c := newClass("A", g, refs)
	ext := []int64{10, 10}
	for i := 0; i < b.N; i++ {
		_, _, _ = c.RectFootprintBounds(ext)
	}
}
