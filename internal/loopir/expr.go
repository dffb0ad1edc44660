package loopir

import (
	"fmt"
	"strings"
)

// Expr is the right-hand side expression tree of a statement. The analysis
// only needs the references it contains; the interpreter and executor also
// evaluate it over concrete array contents.
type Expr interface {
	exprNode()
}

// RefExpr is an array read appearing in an expression.
type RefExpr struct{ Ref Ref }

// ConstExpr is an integer literal.
type ConstExpr struct{ Value int64 }

// VarExpr is a loop-variable use as a value (e.g. `A[i,j] = i + j`).
type VarExpr struct{ Name string }

// BinExpr is a binary arithmetic operation.
type BinExpr struct {
	Op          byte // '+', '-', '*'
	Left, Right Expr
}

func (RefExpr) exprNode()   {}
func (ConstExpr) exprNode() {}
func (VarExpr) exprNode()   {}
func (BinExpr) exprNode()   {}

// refsOf collects references in evaluation (left-to-right) order.
func refsOf(e Expr) []Ref {
	var out []Ref
	eachRef(e, func(r Ref) { out = append(out, r) })
	return out
}

// eachRef calls fn on every reference in e, in evaluation (left-to-right)
// order, without collecting them.
func eachRef(e Expr, fn func(Ref)) {
	switch t := e.(type) {
	case RefExpr:
		fn(t.Ref)
	case BinExpr:
		eachRef(t.Left, fn)
		eachRef(t.Right, fn)
	}
}

func exprString(e Expr) string {
	switch t := e.(type) {
	case RefExpr:
		return t.Ref.String()
	case ConstExpr:
		return fmt.Sprintf("%d", t.Value)
	case VarExpr:
		return t.Name
	case BinExpr:
		l, r := exprString(t.Left), exprString(t.Right)
		if t.Op == '*' {
			if lb, ok := t.Left.(BinExpr); ok && lb.Op != '*' {
				l = "(" + l + ")"
			}
			if rb, ok := t.Right.(BinExpr); ok && rb.Op != '*' {
				r = "(" + r + ")"
			}
		}
		return fmt.Sprintf("%s %c %s", l, t.Op, r)
	default:
		return "?"
	}
}

// Sum builds a left-associated sum of expressions; Sum() is 0.
func Sum(es ...Expr) Expr {
	if len(es) == 0 {
		return ConstExpr{0}
	}
	e := es[0]
	for _, f := range es[1:] {
		e = BinExpr{Op: '+', Left: e, Right: f}
	}
	return e
}

// normalizeSpaces is a test helper exposed for golden comparisons.
func normalizeSpaces(s string) string {
	return strings.Join(strings.Fields(s), " ")
}
