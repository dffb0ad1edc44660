package footprint

import (
	"math"
	"math/rand"
	"testing"

	"looppart/internal/intmat"
	"looppart/internal/paperex"
	"looppart/internal/tile"
)

// oracleRect is the string-keyed Definition 3 count over the origin
// rectangle: the independent reference the integer counter and the
// closed-form models are checked against.
func oracleRect(c Class, ext []int64) int64 {
	return ExactClassFootprintFunc(c, rectForEach(ext))
}

// randomCountClass draws a small class: an l×d reference matrix (often
// rank-deficient) and 1–4 references with small offsets.
func randomCountClass(rnd *rand.Rand, l int) Class {
	d := rnd.Intn(4)
	g := intmat.NewMat(l, d)
	for i := 0; i < l; i++ {
		for k := 0; k < d; k++ {
			g.Set(i, k, int64(rnd.Intn(7)-3))
		}
	}
	refs := make([]Ref, 1+rnd.Intn(4))
	for r := range refs {
		refs[r].A = make([]int64, d)
		for k := range refs[r].A {
			refs[r].A[k] = int64(rnd.Intn(11) - 5)
		}
	}
	return Class{Array: "A", G: g, Refs: refs}
}

func TestCountRectImageMatchesOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(14))
	for trial := 0; trial < 3000; trial++ {
		l := 1 + rnd.Intn(3)
		c := randomCountClass(rnd, l)
		ext := make([]int64, l)
		for k := range ext {
			ext[k] = 1 + int64(rnd.Intn(9))
		}
		got, ok := CountRectImage(c, ext)
		if !ok {
			t.Fatalf("counter declined a small class: G=%v refs=%v ext=%v", c.G, c.Refs, ext)
		}
		if want := oracleRect(c, ext); got != want {
			t.Fatalf("G=%v refs=%v ext=%v: counter %d, oracle %d", c.G, c.Refs, ext, got, want)
		}
		union, single, points := c.enumerateRect(ext, true)
		if union != got || single != oracleRect(c.firstRef(), ext) || points != rectVolume(ext) {
			t.Fatalf("G=%v refs=%v ext=%v: enumerateRect = (%d, %d, %d), want (%d, %d, %d)",
				c.G, c.Refs, ext, union, single, points, got, oracleRect(c.firstRef(), ext), rectVolume(ext))
		}
	}
}

func TestCountTileImageMatchesOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(15))
	for trial := 0; trial < 1500; trial++ {
		l := 2 + rnd.Intn(2)
		c := randomCountClass(rnd, l)
		ext := make([]int64, l)
		for k := range ext {
			ext[k] = 1 + int64(rnd.Intn(5))
		}
		s := intmat.Identity(l)
		r, q := rnd.Intn(l), rnd.Intn(l)
		if r != q {
			s.Set(r, q, int64(rnd.Intn(7)-3))
		}
		tl := tile.Tile{L: intmat.Diag(ext...).Mul(s)}
		got, ok := CountTileImage(c, tl)
		if !ok {
			t.Fatalf("counter declined a small tile: G=%v L=%v", c.G, tl.L)
		}
		pts := tile.OriginPoints(tl)
		if want := ExactClassFootprint(c, pts); got != want {
			t.Fatalf("G=%v refs=%v L=%v: counter %d, oracle %d", c.G, c.Refs, tl.L, got, want)
		}
		if _, points := c.enumerateTile(tl); points != int64(len(pts)) {
			t.Fatalf("L=%v: enumerateTile walked %d points, tile has %d", tl.L, points, len(pts))
		}
	}
}

// Boxes too large for a dense bitset count in the map and still agree.
func TestCountSparseBoxUsesMap(t *testing.T) {
	// A[i+j, 40·(i+j)]: a 1-D image strung diagonally across a 2-D box
	// far larger than denseBitsPerPair bits per walked pair.
	g := intmat.FromRows([][]int64{{1, 40}, {1, 40}})
	c := Class{Array: "A", G: g, Refs: []Ref{{A: []int64{0, 0}}, {A: []int64{3, 1}}}}
	ext := []int64{60, 60}
	w, ok := rectWalk(c.G, c.Refs, ext)
	if !ok {
		t.Fatal("counter declined")
	}
	if pairs := w.points() * 2; w.size <= max(minDenseBits, denseBitsPerPair*pairs) {
		t.Fatalf("box of %d bits is dense for %d pairs; the test needs a sparse box", w.size, pairs)
	}
	if got, ok := CountRectImage(c, ext); !ok || got != oracleRect(c, ext) {
		t.Errorf("sparse box: counter %d (ok=%v), oracle %d", got, ok, oracleRect(c, ext))
	}
}

// Unrepresentable data boxes decline, and the enumeration fallback then
// answers from the oracle exactly as before.
func TestCountDeclinesOnOverflow(t *testing.T) {
	g := intmat.FromRows([][]int64{{1}, {2}})
	c := Class{Array: "A", G: g, Refs: []Ref{
		{A: []int64{math.MaxInt64 / 2}},
		{A: []int64{math.MinInt64 / 2}},
	}}
	ext := []int64{3, 3}
	if _, ok := CountRectImage(c, ext); ok {
		t.Fatal("counter accepted a data box wider than int64")
	}
	v, ex, _, points := c.rectEnumOrModel(ext, false)
	if ex != Enumerated || v != float64(oracleRect(c, ext)) || points != 9 {
		t.Errorf("fallback = (%v, %v, %d points), want the oracle's %d over 9 points", v, ex, points, oracleRect(c, ext))
	}

	big := intmat.FromRows([][]int64{{1 << 40, 1 << 40}, {1, 1 << 30}})
	cb := Class{Array: "A", G: big, Refs: []Ref{{A: []int64{0, 0}}}}
	if _, ok := CountRectImage(cb, []int64{1 << 12, 1 << 12}); ok {
		t.Error("counter accepted a box of about 2^104 indices")
	}
}

// RectTotals is the Analysis footprint and traffic sums in one pass,
// bit-identical, and the enumeration work is counted per query.
func TestEvaluatorRectTotals(t *testing.T) {
	srcs := map[string]string{
		"example2": paperex.Example2,
		"rankdef":  "doall (i, 1, 24)\n doall (j, 1, 24)\n  doall (k, 1, 24)\n   A[2*i - 2*k - 2] = A[2*i - 2*k] + B[i, j, k] + B[i + 1, j, k + 2] + C[i + j, i + j]\n  enddoall\n enddoall\nenddoall",
	}
	for name, src := range srcs {
		a := analyze(t, src, nil)
		ev := NewEvaluator(a)
		for _, ext := range [][]int64{{24, 1, 1}, {6, 4, 24}, {12, 12, 3}, {1, 1, 1}} {
			if len(ext) > len(a.Vars) {
				ext = ext[:len(a.Vars)]
			}
			wantFP, wantEx := a.RectTotalFootprint(ext)
			wantTr, _ := a.RectTotalTraffic(ext)
			before := ev.EnumPoints()
			fp, tr, ex := ev.RectTotals(ext)
			if fp != wantFP || tr != wantTr || ex != wantEx {
				t.Errorf("%s ext=%v: RectTotals = (%v, %v, %v), Analysis = (%v, %v, %v)",
					name, ext, fp, tr, ex, wantFP, wantTr, wantEx)
			}
			walked := ev.EnumPoints() - before
			if (walked > 0) != (ex == Enumerated) {
				t.Errorf("%s ext=%v: %d points enumerated for a %v result", name, ext, walked, ex)
			}
		}
	}
}
