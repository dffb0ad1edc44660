// Package plancache is the caching layer of the partition-planning
// service: a canonical plan key derived from a normalized loop nest, a
// byte-bounded LRU cache of encoded plans, and a singleflight group that
// collapses concurrent searches for the same nest into one.
//
// The paper's central observation makes plans highly cacheable: the
// communication-optimal tile shape depends only on the loop's affine
// reference structure (G, a), its iteration-space bounds, and the
// processor count P (Theorems 2 and 4) — not on who asks, when, or how
// the nest happens to spell its index variables. Canonicalization
// normalizes away exactly the request variation that cannot change the
// answer: whitespace, index naming, reference order within the body, and
// symbolic loop-bound parameters (already resolved to integers by the
// parser).
package plancache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"strings"
	"sync"

	"looppart/internal/loopir"
)

// CanonicalNest renders a parsed nest in canonical textual form:
//
//   - loop variables are renamed positionally (i00, i01, ... outermost
//     first), so index naming is erased;
//   - loop bounds are the resolved integers (symbolic parameters were
//     substituted at parse time);
//   - the body is reduced to its access multiset — one line per array
//     reference occurrence with its role (read, write, atomic) — sorted
//     lexicographically, so statement and operand order are erased.
//
// Two nests with equal canonical forms have identical reference analyses
// up to class ordering and therefore identical optimal plans. Array names
// are kept verbatim: renaming arrays canonically is reference-order
// dependent and the plan itself never depends on them, so distinct names
// only cost cache sharing, never correctness.
func CanonicalNest(n *loopir.Nest) string {
	r := renderers.Get().(*renderer)
	defer renderers.Put(r)
	return string(r.render(n))
}

// Key returns the cache key for planning the nest on procs processors
// under the named strategy: a digest of the canonical nest, prefixed with
// the request parameters for debuggability.
func Key(n *loopir.Nest, procs int, strategy string) string {
	r := renderers.Get().(*renderer)
	defer renderers.Put(r)
	sum := sha256.Sum256(r.render(n))
	var kb [80]byte
	b := append(kb[:0], strategy...)
	b = append(b, "/p"...)
	b = strconv.AppendInt(b, int64(procs), 10)
	b = append(b, '/')
	b = hex.AppendEncode(b, sum[:16])
	return string(b)
}

// renderer holds the scratch buffers of one canonical rendering, pooled so
// that a cache lookup allocates nothing but the key string.
type renderer struct {
	out   []byte   // the canonical form
	lines []byte   // access lines, back to back
	ends  []int    // ends[i] is the end of access line i in lines
	order []int    // access lines in sorted order
	names []string // canonical loop variable names, outermost first
	terms []term   // one subscript's variable terms
}

// term is one variable term of a subscript under its canonical name.
type term struct {
	name string
	coef int64
}

var renderers = sync.Pool{New: func() any { return new(renderer) }}

// smallNames are the canonical names of the first hundred loops.
var smallNames = func() (names [100]string) {
	for k := range names {
		names[k] = "i" + strconv.Itoa(k/10) + strconv.Itoa(k%10)
	}
	return names
}()

// canonName is loop k's canonical variable name: i00, i01, …, i99, i100.
func canonName(k int) string {
	if k < len(smallNames) {
		return smallNames[k]
	}
	return "i" + strconv.Itoa(k)
}

// render returns the canonical form of n in r.out, valid until r's next
// use.
func (r *renderer) render(n *loopir.Nest) []byte {
	out := r.out[:0]
	r.names = r.names[:0]
	for k, l := range n.Loops {
		v := canonName(k)
		r.names = append(r.names, v)
		out = append(out, l.Kind.String()...)
		out = append(out, ' ')
		out = append(out, v...)
		out = append(out, ' ')
		out = strconv.AppendInt(out, l.Lo, 10)
		out = append(out, ' ')
		if l.SymHi != "" {
			// Symbolic upper bounds keep their name: two nests agreeing
			// up to the unknown extent share a plan, different unknowns
			// do not.
			out = append(out, '?')
			out = append(out, l.SymHi...)
		} else {
			out = strconv.AppendInt(out, l.Hi, 10)
		}
		out = append(out, '\n')
	}

	r.lines, r.ends = r.lines[:0], r.ends[:0]
	n.EachAccess(func(acc loopir.Access) { r.access(n, acc) })
	r.order = r.order[:0]
	for i := range r.ends {
		r.order = append(r.order, i)
	}
	slices.SortFunc(r.order, func(a, b int) int { return bytes.Compare(r.line(a), r.line(b)) })
	for i, k := range r.order {
		if i > 0 {
			out = append(out, '\n')
		}
		out = append(out, r.line(k)...)
	}
	r.out = out
	return out
}

// line returns access line i.
func (r *renderer) line(i int) []byte {
	start := 0
	if i > 0 {
		start = r.ends[i-1]
	}
	return r.lines[start:r.ends[i]]
}

// access appends one access line: its role, then the reference with
// canonical index names.
func (r *renderer) access(n *loopir.Nest, acc loopir.Access) {
	b := r.lines
	switch {
	case acc.Write && acc.Atomic:
		b = append(b, "w$ "...)
	case acc.Write:
		b = append(b, "w "...)
	case acc.Atomic:
		b = append(b, "r$ "...)
	default:
		b = append(b, "r "...)
	}
	b = append(b, acc.Ref.Array...)
	b = append(b, '[')
	for i, sub := range acc.Ref.Subs {
		if i > 0 {
			b = append(b, ',')
		}
		b = r.affine(b, n, sub)
	}
	b = append(b, ']')
	r.lines = b
	r.ends = append(r.ends, len(b))
}

// affine appends one subscript with canonical index names, in the format
// of loopir.AffineExpr.String: terms in lexicographic order of the
// canonical name (so i100 sorts before i11), then the constant.
func (r *renderer) affine(b []byte, n *loopir.Nest, sub loopir.AffineExpr) []byte {
	ts := r.terms[:0]
	for v, c := range sub.Coef {
		ts = append(ts, term{r.rename(n, v), c})
	}
	slices.SortFunc(ts, func(a, b term) int { return strings.Compare(a.name, b.name) })
	// Variables that share a canonical name sum, and a zero sum drops the
	// term, as AffineExpr.AddTerm would.
	w := 0
	for _, t := range ts {
		if w > 0 && ts[w-1].name == t.name {
			ts[w-1].coef += t.coef
			continue
		}
		ts[w] = t
		w++
	}
	r.terms = ts

	first := true
	for _, t := range ts[:w] {
		switch c := t.coef; {
		case c == 0:
			continue
		case c == 1:
			if !first {
				b = append(b, '+')
			}
			b = append(b, t.name...)
		case c == -1:
			b = append(b, '-')
			b = append(b, t.name...)
		default:
			if c > 0 && !first {
				b = append(b, '+')
			}
			b = strconv.AppendInt(b, c, 10)
			b = append(b, '*')
			b = append(b, t.name...)
		}
		first = false
	}
	if sub.Const != 0 || first {
		if !first && sub.Const > 0 {
			b = append(b, '+')
		}
		b = strconv.AppendInt(b, sub.Const, 10)
	}
	return b
}

// rename maps a loop variable to its canonical name; the innermost loop
// wins a duplicated name, and a variable bound by no loop renders empty.
func (r *renderer) rename(n *loopir.Nest, v string) string {
	for k := len(n.Loops) - 1; k >= 0; k-- {
		if n.Loops[k].Var == v {
			return r.names[k]
		}
	}
	return ""
}
