package plancache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"looppart/internal/loopir"
)

// The fmt-based canonical renderer the append-style one replaced, kept as
// the oracle the key-equivalence tests hold CanonicalNest and Key to:
// every cache key (and so every stored and served plan) depends on the
// two producing identical bytes.

func oracleCanonicalNest(n *loopir.Nest) string {
	rename := make(map[string]string, len(n.Loops))
	var b strings.Builder
	for k, l := range n.Loops {
		v := fmt.Sprintf("i%02d", k)
		rename[l.Var] = v
		if l.SymHi != "" {
			fmt.Fprintf(&b, "%s %s %d ?%s\n", l.Kind, v, l.Lo, l.SymHi)
		} else {
			fmt.Fprintf(&b, "%s %s %d %d\n", l.Kind, v, l.Lo, l.Hi)
		}
	}
	accs := n.Accesses()
	lines := make([]string, 0, len(accs))
	for _, acc := range accs {
		role := "r"
		switch {
		case acc.Write && acc.Atomic:
			role = "w$"
		case acc.Write:
			role = "w"
		case acc.Atomic:
			role = "r$"
		}
		lines = append(lines, role+" "+oracleRenderRef(acc.Ref, rename))
	}
	sort.Strings(lines)
	b.WriteString(strings.Join(lines, "\n"))
	return b.String()
}

func oracleRenderRef(r loopir.Ref, rename map[string]string) string {
	subs := make([]string, len(r.Subs))
	for i, sub := range r.Subs {
		e := loopir.NewAffine(sub.Const)
		for v, c := range sub.Coef {
			e = e.AddTerm(rename[v], c)
		}
		subs[i] = e.String()
	}
	return r.Array + "[" + strings.Join(subs, ",") + "]"
}

func oracleKey(n *loopir.Nest, procs int, strategy string) string {
	sum := sha256.Sum256([]byte(oracleCanonicalNest(n)))
	return fmt.Sprintf("%s/p%d/%s", strategy, procs, hex.EncodeToString(sum[:16]))
}
