package plancache

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"looppart/internal/loopir"
	"looppart/internal/paperex"
	"looppart/internal/verify"
)

// goldenFile pins the served plan bytes and canonical keys of every paper
// example × strategy × procs; goldenParams are the bindings it was
// generated under (golden_strategy_test.go at the repository root).
const goldenFile = "../../testdata/golden_strategies.txt"

var goldenParams = map[string]int64{"N": 24, "T": 2}

// keyEquivStrategies are the request parameters each corpus nest is keyed
// under: the key prefix must render exactly as before too.
var keyEquivStrategies = []struct {
	procs    int
	strategy string
}{{1, "auto"}, {16, "rect"}, {1024, "comm-free"}}

// assertSameKey fails t unless CanonicalNest and Key agree byte for byte
// with the fmt oracle on n.
func assertSameKey(t testing.TB, what string, n *loopir.Nest) {
	t.Helper()
	if got, want := CanonicalNest(n), oracleCanonicalNest(n); got != want {
		t.Fatalf("%s: canonical form diverges from the oracle:\ngot:\n%s\nwant:\n%s", what, got, want)
	}
	for _, ks := range keyEquivStrategies {
		if got, want := Key(n, ks.procs, ks.strategy), oracleKey(n, ks.procs, ks.strategy); got != want {
			t.Fatalf("%s: key %q, oracle %q", what, got, want)
		}
	}
}

// goldenKeys reads the (example, strategy, procs) → key records of the
// golden file.
func goldenKeys(t testing.TB) map[[3]string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	keys := map[[3]string]string{}
	var cur [3]string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var name, strategy string
		var procs int
		if _, err := fmt.Sscanf(line, "=== %s strategy=%s procs=%d ===", &name, &strategy, &procs); err == nil {
			cur = [3]string{name, strategy, fmt.Sprint(procs)}
			continue
		}
		if k, ok := strings.CutPrefix(line, "key: "); ok {
			keys[cur] = k
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatalf("no keys in %s", goldenFile)
	}
	return keys
}

func TestCanonicalKeyMatchesGoldenFile(t *testing.T) {
	for id, want := range goldenKeys(t) {
		src, ok := paperex.All[id[0]]
		if !ok {
			t.Fatalf("golden example %q is not a paperex nest", id[0])
		}
		n := mustNest(t, src, goldenParams)
		var procs int
		fmt.Sscan(id[2], &procs)
		if got := Key(n, procs, id[1]); got != want {
			t.Errorf("%v: key %q, golden %q", id, got, want)
		}
		assertSameKey(t, id[0], n)
	}
}

// TestCanonicalKeyMatchesOracleOnCorpus covers the 220-nest differential
// corpus of internal/verify (same generator and seed) and 5000 more
// random nests under a wider generator configuration.
func TestCanonicalKeyMatchesOracleOnCorpus(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for checked := 0; checked < 220; {
		src := verify.RandomNest(rnd, verify.GenConfig{})
		n, err := loopir.Parse(src, nil)
		if err != nil {
			continue
		}
		assertSameKey(t, src, n)
		checked++
	}
	wide := verify.GenConfig{MaxDepth: 4, MaxExtent: 300, MaxCoef: 3, MaxOffset: 12, MaxArrays: 4, MaxRefsPer: 4}
	rnd = rand.New(rand.NewSource(5000))
	for i := 0; i < 5000; i++ {
		cfg := verify.GenConfig{}
		if i%2 == 1 {
			cfg = wide
		}
		src := verify.RandomNest(rnd, cfg)
		n, err := loopir.Parse(src, nil)
		if err != nil {
			t.Fatalf("generated nest does not parse: %v\n%s", err, src)
		}
		assertSameKey(t, src, n)
	}
}

func TestCanonicalKeyMatchesOracleOnEdgeCases(t *testing.T) {
	cases := map[string]string{
		"symbolic extents": `
doall (i, 1, ?N)
  doall (j, 0, ?M)
    A[i,j] = B[i-1,j] + B[i,j+1]
  enddoall
enddoall`,
		"zero, unit and negative coefficients": `
doall (i, -3, 7)
  doall (j, 1, 9)
    doall (k, 0, 4)
      A[0*i + j, -i, -2*j + 3*k - 1] = B[i - i + k, -i - j - k, 0] + C[-0, 5*i - 7, -k + 2*j] + A[j*3 + 1, 2 - i, k]
    enddoall
  enddoall
enddoall`,
		"atomic accumulate and doseq": `
doseq (t, 1, 3)
  doall (i, 1, 16)
    l$S[i] = S[i] + X[t, i] * 2
  enddoall
enddoseq`,
	}
	for name, src := range cases {
		assertSameKey(t, name, mustNest(t, src, nil))
	}
	for _, depth := range []int{11, 101} {
		n := deepNest(t, depth)
		assertSameKey(t, fmt.Sprintf("%d loops deep", depth), n)
	}
}

// TestCanonicalKeyKeepsDeepNestOrder pins the quirk the canonical names
// inherit from AffineExpr.String's lexicographic order: past the hundredth
// loop, i100 sorts before i11.
func TestCanonicalKeyKeepsDeepNestOrder(t *testing.T) {
	form := CanonicalNest(deepNest(t, 101))
	if !strings.Contains(form, "i100+i11") {
		t.Errorf("101-deep canonical form lost the i100-before-i11 order:\n%s", form)
	}
}

// deepNest is a depth-loop nest whose subscripts mix the first, a middle
// (the twelfth where the nest has one to spare) and the last index with
// varied coefficients.
func deepNest(t *testing.T, depth int) *loopir.Nest {
	var b strings.Builder
	for k := 0; k < depth; k++ {
		fmt.Fprintf(&b, "doall (v%d, 1, %d)\n", k, 2+k%3)
	}
	mid := "v9"
	if depth > 12 {
		mid = "v11"
	}
	last := fmt.Sprintf("v%d", depth-1)
	fmt.Fprintf(&b, "A[v0 + %[1]s + %[2]s, -%[1]s + 2*v0] = B[3*%[2]s - %[1]s - 1, v5] + A[%[1]s, %[2]s + 4]\n", mid, last)
	for k := 0; k < depth; k++ {
		b.WriteString("enddoall\n")
	}
	return mustNest(t, b.String(), nil)
}

// TestCanonicalKeyMatchesOracleOnHandBuiltNests covers what the parser
// never produces but the renderers must still agree on: zero entries in a
// coefficient map, duplicate loop variables, and variables no loop binds
// (several collapse onto the empty name and may cancel).
func TestCanonicalKeyMatchesOracleOnHandBuiltNests(t *testing.T) {
	ref := func(array string, subs ...loopir.AffineExpr) loopir.Ref {
		return loopir.Ref{Array: array, Subs: subs}
	}
	aff := func(c int64, coef map[string]int64) loopir.AffineExpr {
		return loopir.AffineExpr{Coef: coef, Const: c}
	}
	n := &loopir.Nest{
		Loops: []loopir.Loop{
			{Kind: loopir.Doall, Var: "i", Lo: 1, Hi: 8},
			{Kind: loopir.Doall, Var: "j", Lo: 1, Hi: 8},
			{Kind: loopir.Doall, Var: "i", Lo: 0, Hi: 3},
		},
		Body: []loopir.Stmt{{
			LHS: ref("A", aff(0, map[string]int64{"i": 0, "j": 1}), aff(-4, nil)),
			RHS: loopir.BinExpr{Op: '+',
				Left:  loopir.RefExpr{Ref: ref("B", aff(2, map[string]int64{"x": 3, "y": -3}), aff(1, map[string]int64{"x": 2, "y": 5, "j": -1}))},
				Right: loopir.RefExpr{Ref: ref("B", aff(0, map[string]int64{"i": -1, "z": -7}))},
			},
		}},
	}
	for i := 0; i < 20; i++ {
		// Map iteration order varies between runs; repeat so a
		// summation-order dependence would show.
		assertSameKey(t, "hand-built", n)
	}
}

// FuzzCanonicalKey holds the append renderer to the fmt oracle on
// arbitrary parseable nests, seeded with the golden file's examples.
func FuzzCanonicalKey(f *testing.F) {
	seeded := map[string]bool{}
	for id := range goldenKeys(f) {
		if !seeded[id[0]] {
			seeded[id[0]] = true
			f.Add(paperex.All[id[0]])
		}
	}
	f.Add("doall (i, 1, ?N) A[-i + 3] = B[2*i - 1] enddoall")
	f.Fuzz(func(t *testing.T, src string) {
		n, err := loopir.Parse(src, goldenParams)
		if err != nil {
			return
		}
		assertSameKey(t, src, n)
	})
}

func BenchmarkCanonicalKey(b *testing.B) {
	n, err := loopir.Parse(paperex.Example8, goldenParams)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Key(n, 64, "skewed")
		}
	})
	b.Run("fmt-oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			oracleKey(n, 64, "skewed")
		}
	})
}
