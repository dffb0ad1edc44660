package commsets

import (
	"context"
	"reflect"
	"testing"

	"looppart/internal/footprint"
	"looppart/internal/loopir"
	"looppart/internal/tile"
)

// fixture builds a Spec for src partitioned by a hand-chosen rectangular
// tile, exactly the way looppart's planner does (tiling anchored at the
// space's lower corner, tile.Assign numbering).
func fixture(t *testing.T, src string, tl tile.Tile, procs int) Spec {
	t.Helper()
	n, err := loopir.Parse(src, nil)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a, err := footprint.Analyze(n)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	space := tile.BoundsOf(n)
	tiling, err := tile.NewTiling(tl, space.Lo)
	if err != nil {
		t.Fatalf("tiling: %v", err)
	}
	asg, err := tile.Assign(tiling, space, procs)
	if err != nil {
		t.Fatalf("assign: %v", err)
	}
	return Spec{Analysis: a, Space: space, Procs: procs, Tile: &tl, Assign: asg.ProcOf}
}

func pairs(a *Analysis) map[[2]int]int64 {
	out := map[[2]int]int64{}
	for _, c := range a.Classes {
		for _, tr := range c.Transfers {
			out[[2]int{tr.From, tr.To}] += tr.Words
		}
	}
	return out
}

// TestExample2Geometry hand-computes the communication sets of the
// paper's Example 2 reference geometry (G = [[1,1],[1,-1]], offsets
// (0,-1) and (4,3)) turned into a producer→consumer flow: the iteration
// offset between the two references solves to u = (4,0), so reads at
// iteration (i,j) consume the element written at (i+4,j). On a 10×10
// space split into i-strips of 5, processor 1 must send its first four
// written rows to processor 0 — 4×10 = 40 words — and nothing flows the
// other way. Splitting along j instead is communication-free because
// the dependence has no j component.
func TestExample2Geometry(t *testing.T) {
	const src = `
doall (i, 101, 110)
  doall (j, 1, 10)
    B[i+j, i-j-1] = B[i+j+4, i-j+3] + 1
  enddoall
enddoall
`
	t.Run("splitI", func(t *testing.T) {
		spec := fixture(t, src, tile.Rect(5, 10), 2)
		a, err := ComputeCtx(context.Background(), spec, Options{})
		if err != nil {
			t.Fatalf("%v", err)
		}
		if a.Method != "analytic" {
			t.Fatalf("method = %s, want analytic", a.Method)
		}
		want := map[[2]int]int64{{1, 0}: 40}
		if got := pairs(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("transfers = %v, want %v", got, want)
		}
		if a.TotalWords != 40 || a.Sent[1] != 40 || a.Recv[0] != 40 {
			t.Fatalf("totals: words=%d sent=%v recv=%v", a.TotalWords, a.Sent, a.Recv)
		}
		if !a.UniqueWrite || a.BackwardRAW || a.CrossClassHazard {
			t.Fatalf("eligibility: unique=%v backward=%v hazard=%v", a.UniqueWrite, a.BackwardRAW, a.CrossClassHazard)
		}
	})
	t.Run("splitJ", func(t *testing.T) {
		spec := fixture(t, src, tile.Rect(10, 5), 2)
		a, err := ComputeCtx(context.Background(), spec, Options{})
		if err != nil {
			t.Fatalf("%v", err)
		}
		if a.TotalWords != 0 || len(pairs(a)) != 0 {
			t.Fatalf("j-strips must be communication-free, got %d words (%v)", a.TotalWords, pairs(a))
		}
	})
}

// TestExample3Geometry hand-computes the paper's Example 3 geometry
// (B[i,j] and B[i+1,j+3], G = I) as a producer→consumer flow on an 8×8
// space cut into four 4×4 tiles (row-major procs 0..3): u = (1,3), so
// each tile's reads are its box shifted by (1,3) and the five non-empty
// writer∩reader intersections count 9, 1, 3, 1, and 9 elements.
func TestExample3Geometry(t *testing.T) {
	const src = `
doall (i, 1, 8)
  doall (j, 1, 8)
    B[i, j] = B[i + 1, j + 3] + 1
  enddoall
enddoall
`
	spec := fixture(t, src, tile.Rect(4, 4), 4)
	a, err := ComputeCtx(context.Background(), spec, Options{Materialize: true})
	if err != nil {
		t.Fatalf("%v", err)
	}
	want := map[[2]int]int64{
		{1, 0}: 9, // i∈[2,4] × j∈[5,7]
		{2, 0}: 1, // (5,4)
		{3, 0}: 3, // i=5 × j∈[5,7]
		{3, 1}: 1, // (5,8)
		{3, 2}: 9, // i∈[6,8] × j∈[5,7]
	}
	if got := pairs(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("transfers = %v, want %v", got, want)
	}
	if a.TotalWords != 23 {
		t.Fatalf("total = %d, want 23", a.TotalWords)
	}
	// Materialized element lists must carry exactly Words elements, in
	// the array's data coordinates.
	for _, c := range a.Classes {
		for _, tr := range c.Transfers {
			if int64(len(tr.Elems)) != tr.Words {
				t.Fatalf("transfer %d→%d: %d elems for %d words", tr.From, tr.To, len(tr.Elems), tr.Words)
			}
			for _, e := range tr.Elems {
				if e.Array != "B" || len(e.Index) != 2 {
					t.Fatalf("bad element %+v", e)
				}
			}
		}
	}
	// The summary digest.
	s := a.Summary()
	if s.Words != 23 || s.MaxSent != 13 || s.MaxRecv != 13 {
		t.Fatalf("summary = %+v", s)
	}
}

// TestEnginesAgree runs the same plans through the analytic engine, the
// scan engine (forced by withholding the tile shape), and the oracle.
// The scan engine and the oracle classify iterations through Assign —
// the analytic engine never calls it — so three-way agreement also
// cross-checks the analytic grid numbering against tile.Assign.
func TestEnginesAgree(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		tl    tile.Tile
		procs int
	}{
		{"example2", "doall (i, 101, 110) doall (j, 1, 10) B[i+j, i-j-1] = B[i+j+4, i-j+3] + 1 enddoall enddoall", tile.Rect(5, 10), 2},
		{"example3", "doall (i, 1, 8) doall (j, 1, 8) B[i, j] = B[i + 1, j + 3] + 1 enddoall enddoall", tile.Rect(4, 4), 4},
		{"ragged", "doall (i, 0, 16) doall (j, 0, 12) A[i, j] = A[i + 2, j + 1] + B[j] enddoall enddoall", tile.Rect(5, 7), 3},
		{"stride", "doall (i, 0, 30) A[2 * i] = A[2 * i + 6] + 1 enddoall", tile.Rect(8), 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := fixture(t, tc.src, tc.tl, tc.procs)
			analytic, err := ComputeCtx(context.Background(), spec, Options{Materialize: true})
			if err != nil {
				t.Fatalf("analytic: %v", err)
			}
			scanSpec := spec
			scanSpec.Tile = nil
			scan, err := ComputeCtx(context.Background(), scanSpec, Options{Materialize: true})
			if err != nil {
				t.Fatalf("scan: %v", err)
			}
			// Rank-deficient classes (e.g. B[j] in a 2-D nest) fall to the
			// scan engine even with the tile shape known, giving "mixed".
			if analytic.Method == "scan" || scan.Method != "scan" {
				t.Fatalf("methods: %s / %s", analytic.Method, scan.Method)
			}
			if !reflect.DeepEqual(pairs(analytic), pairs(scan)) {
				t.Fatalf("engines disagree: analytic %v, scan %v", pairs(analytic), pairs(scan))
			}
			if analytic.UniqueWrite != scan.UniqueWrite {
				t.Fatalf("unique-write disagreement: %v vs %v", analytic.UniqueWrite, scan.UniqueWrite)
			}
			oracle, err := Oracle(spec, 0)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if analytic.TotalWords != oracle.TotalWords {
				t.Fatalf("words: analytic %d, oracle %d", analytic.TotalWords, oracle.TotalWords)
			}
			for pair, words := range pairs(analytic) {
				var ow int64
				for _, oc := range oracle.Classes {
					ow += oc.Pairs[pair]
				}
				if words != ow {
					t.Fatalf("pair %v: analytic %d, oracle %d", pair, words, ow)
				}
			}
			// Both engines' exchanges must materialize identical element
			// multisets per pair.
			ax, err := analytic.Exchange()
			if err != nil {
				t.Fatalf("%v", err)
			}
			sx, err := scan.Exchange()
			if err != nil {
				t.Fatalf("%v", err)
			}
			if ax.Words != sx.Words || len(ax.Pairs) != len(sx.Pairs) {
				t.Fatalf("exchange shape: %d/%d words, %d/%d pairs", ax.Words, sx.Words, len(ax.Pairs), len(sx.Pairs))
			}
		})
	}
}

// TestBackwardRAWDetected: reading A[i-1] consumes the element written
// one iteration earlier — lexicographically backward — so across a tile
// boundary the plan must be flagged ineligible for value checking,
// while the transfer counts themselves stay exact.
func TestBackwardRAWDetected(t *testing.T) {
	spec := fixture(t, "doall (i, 0, 15) A[i] = A[i - 1] + 1 enddoall", tile.Rect(4), 4)
	a, err := ComputeCtx(context.Background(), spec, Options{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if !a.BackwardRAW || a.CanCheckValues() {
		t.Fatalf("backward RAW not flagged: %+v", a)
	}
	if a.TotalWords == 0 {
		t.Fatalf("expected cross-tile words")
	}
	oracle, err := Oracle(spec, 0)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if a.TotalWords != oracle.TotalWords {
		t.Fatalf("words: %d vs oracle %d", a.TotalWords, oracle.TotalWords)
	}
}

// TestNonUniqueWriteDetected: two writes per iteration land on the same
// element when subscripts collide across iterations.
func TestNonUniqueWriteDetected(t *testing.T) {
	// A[i] and A[i+1] both written: element i+1 is written by iterations
	// i+1 and i — two producers.
	spec := fixture(t, "doall (i, 0, 15) A[i] = A[i + 1] + 1 enddoall", tile.Rect(4), 4)
	a, err := ComputeCtx(context.Background(), spec, Options{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if !a.UniqueWrite {
		t.Fatalf("single-writer stencil misflagged")
	}

	spec2 := fixture(t, "doall (i, 0, 15) doall (j, 0, 3) A[i + j] = B[i] + 1 enddoall enddoall", tile.Rect(4, 4), 4)
	a2, err := ComputeCtx(context.Background(), spec2, Options{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if a2.UniqueWrite {
		t.Fatalf("overlapping writes not flagged")
	}
	oracle, err := Oracle(spec2, 0)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if oracle.UniqueWrite {
		t.Fatalf("oracle missed the overlapping writes")
	}
}

// TestTable pins the human-readable rendering loopsim prints.
func TestTable(t *testing.T) {
	spec := fixture(t, "doall (i, 0, 9) A[i] = A[i + 2] + 1 enddoall", tile.Rect(5), 2)
	a, err := ComputeCtx(context.Background(), spec, Options{})
	if err != nil {
		t.Fatalf("%v", err)
	}
	// Reads at i consume writes at i+2: proc 0 (i∈[0,4]) needs writes
	// {5,6} from proc 1.
	if a.TotalWords != 2 {
		t.Fatalf("words = %d, want 2", a.TotalWords)
	}
	got := a.Table()
	want := "proc           sent         recv\n" +
		"0                 0            2\n" +
		"1                 2            0\n" +
		"total words/epoch: 2 (method analytic)\n"
	if got != want {
		t.Fatalf("table:\n%s\nwant:\n%s", got, want)
	}
}
