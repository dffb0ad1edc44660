package verify

import (
	"errors"
	"math/rand"
	"testing"

	"looppart/internal/footprint"
	"looppart/internal/intmat"
	"looppart/internal/loopir"
	"looppart/internal/tile"
)

// Go-native fuzz targets over the differential harness. `go test` runs
// them as seed-corpus regression tests; scripts/verify.sh runs each as a
// short fuzzing smoke (-fuzz -fuzztime=10s).

// fuzzDiffable bounds the nests the fuzzer may push through the
// model-vs-enumeration diff: the harness enumerates the full iteration
// space, so extents must stay small, and coefficient magnitudes must stay
// far from the int64 overflow cliffs the analysis treats as errors.
func fuzzDiffable(n *loopir.Nest) bool {
	if len(n.Loops) > 4 {
		return false
	}
	space := int64(1)
	for _, l := range n.Loops {
		if l.Lo < -64 || l.Hi > 64 {
			return false
		}
		space *= l.Extent()
		if space > 1<<14 {
			return false
		}
	}
	for _, acc := range n.Accesses() {
		if len(acc.Ref.Subs) > 3 {
			return false
		}
		for _, sub := range acc.Ref.Subs {
			if sub.Const < -64 || sub.Const > 64 {
				return false
			}
			for _, c := range sub.Coef {
				if c < -8 || c > 8 {
					return false
				}
			}
		}
	}
	return true
}

// FuzzRectFootprint mutates loopir source text and asserts the footprint
// models against exact enumeration on every nest that parses and stays
// within the enumeration bounds.
func FuzzRectFootprint(f *testing.F) {
	f.Add("doall (i, 0, 7) A[i] = A[i - 1] enddoall")
	f.Add("doall (i, 0, 7) doall (j, 0, 7) A[i, j] = A[i, j - 1] + A[i - 1, j] enddoall enddoall")
	f.Add("doall (i, 1, 6) doall (j, 1, 6) B[2*i - j] = B[2*i - j + 3] + B[2*i - j - 2] enddoall enddoall")
	f.Add("doall (i, 0, 5) doall (j, 0, 5) A[i + j, i - j] = A[i + j + 1, i - j - 1] + B[j, i] enddoall enddoall")
	// Off-domain nests for the closed-form fast path (see closedform_test.go):
	// extent at/below the spread coefficient, and dependent subscript columns
	// whose §3.4.1 reduction leaves a non-square G'. These keep the fuzzer
	// mutating around the fallback boundary.
	f.Add("doall (i, 0, 4) doall (j, 0, 4) A[i, j] = A[i + 5, j] enddoall enddoall")
	f.Add("doall (i, 0, 7) doall (j, 0, 7) A[i + j, i + j] = A[i + j - 1, i + j - 1] enddoall enddoall")
	rnd := rand.New(rand.NewSource(99))
	for i := 0; i < 8; i++ {
		f.Add(RandomNest(rnd, GenConfig{}))
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := loopir.Parse(src, nil)
		if err != nil || n.Validate() != nil || !fuzzDiffable(n) {
			t.Skip()
		}
		a, err := footprint.Analyze(n)
		if err != nil {
			t.Skip()
		}
		if _, err := DiffAnalysis(a, DefaultTolerance); err != nil {
			t.Fatalf("model disagrees with enumeration:\n%s\n%v", src, err)
		}
	})
}

// FuzzExactCount differentially tests the integer image counter behind
// the enumeration fallbacks (footprint.CountRectImage / CountTileImage)
// against the string-keyed oracle on random reference matrices, offsets
// and extents, over rectangular and skewed origin tiles. The counter must
// return the oracle's count or decline (ok=false: the caller then runs
// the oracle itself); a different count is a failure. The oracle is
// consulted only when the counter answers — a declined input may be one
// the oracle itself rejects with an overflow panic.
//
// Inputs decode as: l = 1 + l%3 loops, d = d%4 data columns, 1 + nrefs%3
// references; G and the offsets cycle through coefs as int8 values, then
// G[0][0] = gBig (when nonzero) and the last reference's first offset
// gains offBig; extents are 1 + |eₖ| mod 2^21, and a nonzero skew shears
// the tile L = diag(ext)·(I + skew·e₀₁). Inputs over the enumeration
// budget are skipped, as the search never enumerates them.
func FuzzExactCount(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(1), []byte{2, 0, 254, 0, 2}, int64(0), int64(0), int64(7), int64(7), int64(7), int8(0))
	f.Add(uint8(2), uint8(2), uint8(2), []byte{1, 1, 1, 1, 0, 0, 255, 3}, int64(0), int64(0), int64(11), int64(5), int64(0), int8(0))
	f.Add(uint8(1), uint8(2), uint8(2), []byte{1, 2, 3, 1}, int64(0), int64(0), int64(8), int64(8), int64(0), int8(1))
	f.Add(uint8(1), uint8(1), uint8(2), []byte{1, 0, 1}, int64(0), int64(0), int64(6), int64(9), int64(0), int8(-2))
	// G entries near 2^31.
	f.Add(uint8(1), uint8(2), uint8(1), []byte{1, 3}, int64(1)<<31-1, int64(0), int64(40), int64(40), int64(0), int8(0))
	f.Add(uint8(0), uint8(1), uint8(1), []byte{1}, -int64(1)<<31, int64(0), int64(1)<<16-1, int64(0), int64(0), int8(0))
	// Offsets near ±2^62: one reference far out counts; two references
	// 2^62 apart overflow the data box and must decline.
	f.Add(uint8(1), uint8(1), uint8(0), []byte{1, 2}, int64(0), int64(1)<<62, int64(9), int64(9), int64(0), int8(0))
	f.Add(uint8(1), uint8(1), uint8(1), []byte{1, 2, 0}, int64(0), -int64(1)<<62, int64(9), int64(9), int64(0), int8(0))
	f.Add(uint8(0), uint8(1), uint8(1), []byte{1, 0}, int64(0), int64(1)<<62-1, int64(3), int64(0), int64(0), int8(0))
	// Extents at the enumeration budget: 2^20 rectangle points, and a
	// skewed tile whose vertex box is as large as the budget allows.
	f.Add(uint8(1), uint8(1), uint8(1), []byte{2, 254}, int64(0), int64(0), int64(511), int64(2047), int64(0), int8(0))
	f.Add(uint8(1), uint8(2), uint8(1), []byte{1, 1, 1, 1}, int64(0), int64(0), int64(255), int64(1023), int64(0), int8(1))
	f.Fuzz(func(t *testing.T, l, d, nrefs uint8, coefs []byte, gBig, offBig, e0, e1, e2 int64, skew int8) {
		nl, nd := 1+int(l%3), int(d%4)
		coef := func(i int) int64 {
			if len(coefs) == 0 {
				return 1
			}
			return int64(int8(coefs[i%len(coefs)]))
		}
		g := intmat.NewMat(nl, nd)
		next := 0
		for i := 0; i < nl; i++ {
			for k := 0; k < nd; k++ {
				g.Set(i, k, coef(next))
				next++
			}
		}
		if nd > 0 && gBig != 0 {
			g.Set(0, 0, gBig)
		}
		refs := make([]footprint.Ref, 1+int(nrefs%3))
		for r := range refs {
			refs[r].A = make([]int64, nd)
			for k := range refs[r].A {
				refs[r].A[k] = coef(next)
				next++
			}
		}
		if nd > 0 {
			last := refs[len(refs)-1].A
			last[0] = intmat.SatAdd(last[0], offBig)
		}
		c := footprint.Class{Array: "A", G: g, Refs: refs}

		ext := make([]int64, nl)
		for k, e := range []int64{e0, e1, e2}[:nl] {
			ext[k] = 1 + int64(uint64(e)%(1<<21))
		}
		budget := footprint.EnumerationBudget()
		if skew == 0 || nl < 2 {
			if rectVolume(ext) > budget {
				t.Skip()
			}
			got, ok := footprint.CountRectImage(c, ext)
			if !ok {
				return
			}
			if want := footprint.ExactClassFootprintFunc(c, rectForEach(ext)); got != want {
				t.Fatalf("G=%v refs=%v ext=%v: counter %d, oracle %d", g, refs, ext, got, want)
			}
			return
		}
		s := intmat.Identity(nl)
		s.Set(0, 1, int64(skew))
		tl := tile.Tile{L: intmat.Diag(ext...).Mul(s)}
		if tileBox(tl) > budget {
			t.Skip()
		}
		got, ok := footprint.CountTileImage(c, tl)
		if !ok {
			return
		}
		if want := footprint.ExactClassFootprint(c, tile.OriginPoints(tl)); got != want {
			t.Fatalf("G=%v refs=%v L=%v: counter %d, oracle %d", g, refs, tl.L, got, want)
		}
	})
}

// tileBox is the saturating point count of the bounding box of t's
// vertices — the quantity the tile enumeration budget gates on.
func tileBox(t tile.Tile) int64 {
	box := int64(1)
	for j := 0; j < t.Dim(); j++ {
		span := int64(1)
		for i := 0; i < t.Dim(); i++ {
			v := t.L.At(i, j)
			if v < 0 {
				v = -v
			}
			span = intmat.SatAdd(span, v)
		}
		box = intmat.SatMul(box, span)
	}
	return box
}

// FuzzCommSets mutates loopir source text and runs the full
// communication-set differential on every nest that parses and stays
// within the enumeration bounds: engines vs oracle to the element, the
// message-passing executor's measured words vs the prediction, and the
// coherence sandwich where eligible. Front-of-pipeline rejections
// (ErrCommDiffUnsupported) are skips; any disagreement is a crash.
func FuzzCommSets(f *testing.F) {
	f.Add("doall (i, 0, 15) A[i] = A[i + 2] + 1 enddoall")
	f.Add("doall (i, 0, 15) A[i] = A[i - 1] + 1 enddoall")
	f.Add("doall (i, 1, 8) doall (j, 1, 8) B[i, j] = B[i + 1, j + 3] + 1 enddoall enddoall")
	f.Add("doall (i, 101, 110) doall (j, 1, 10) B[i+j, i-j-1] = B[i+j+4, i-j+3] + 1 enddoall enddoall")
	f.Add("doseq (s, 1, 3) doall (i, 1, 12) doall (j, 1, 12) A[i, j] = A[i + 1, j] + A[i, j + 1] enddoall enddoall enddoseq")
	f.Add("doall (i, 0, 12) doall (j, 0, 6) A[i + j] = B[j] + 1 enddoall enddoall")
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		f.Add(RandomNest(rnd, GenConfig{}))
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := loopir.Parse(src, nil)
		if err != nil || n.Validate() != nil || !fuzzDiffable(n) {
			t.Skip()
		}
		if _, err := DiffCommSets(src, 3); err != nil {
			if errors.Is(err, ErrCommDiffUnsupported) {
				t.Skip()
			}
			t.Fatalf("comm-set differential failed:\n%s\n%v", src, err)
		}
	})
}

// FuzzHNF decodes raw bytes into a small integer matrix and asserts the
// Hermite and Smith normal form contracts (CheckHNF / CheckSNF): either a
// reported overflow, or transforms that reproduce the input exactly.
func FuzzHNF(f *testing.F) {
	f.Add([]byte{2, 2, 1, 2, 3, 4})
	f.Add([]byte{3, 3, 2, 4, 4, 250, 6, 12, 10, 4, 16})
	f.Add([]byte{1, 4, 0, 0, 0, 0})
	f.Add([]byte{4, 1, 128, 127, 1, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ok := matFromBytes(data)
		if !ok {
			t.Skip()
		}
		if err := CheckHNF(m); err != nil {
			t.Fatalf("HNF contract violated for %v: %v", m, err)
		}
		if err := CheckSNF(m); err != nil {
			t.Fatalf("SNF contract violated for %v: %v", m, err)
		}
	})
}

// matFromBytes decodes [rows, cols, entries...] with each entry an int8.
// Undersized or oversized shapes reject the input.
func matFromBytes(data []byte) (intmat.Mat, bool) {
	if len(data) < 3 {
		return intmat.Mat{}, false
	}
	rows := int(data[0]%4) + 1
	cols := int(data[1]%4) + 1
	if len(data)-2 < rows*cols {
		return intmat.Mat{}, false
	}
	m := intmat.NewMat(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, int64(int8(data[2+i*cols+j])))
		}
	}
	return m, true
}
