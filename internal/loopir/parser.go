package loopir

import (
	"fmt"
)

// Parse parses a loop-nest program. Named constants appearing in loop
// bounds (e.g. `doall (i, 1, N)`) are resolved against params; an unknown
// name is an error. The resulting nest is validated.
func Parse(src string, params map[string]int64) (*Nest, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, params: params}
	nest, err := p.parseNest()
	if err != nil {
		return nil, err
	}
	if err := nest.Validate(); err != nil {
		return nil, err
	}
	return nest, nil
}

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(src string, params map[string]int64) *Nest {
	n, err := Parse(src, params)
	if err != nil {
		panic(err)
	}
	return n
}

type parser struct {
	toks   []token
	pos    int
	params map[string]int64
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) advance()   { p.pos++ }
func (p *parser) at(k tokenKind) bool {
	return p.cur().kind == k
}

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.cur()
	if t.kind != k {
		return t, fmt.Errorf("%d:%d: expected %s, found %s %q", t.line, t.col, k, t.kind, t.text)
	}
	p.advance()
	return t, nil
}

func (p *parser) errorf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("%d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

// parseNest parses the loop headers, the body, and the matching end
// keywords.
func (p *parser) parseNest() (*Nest, error) {
	var loops []Loop
	for isKeyword(p.cur(), "doall") || isKeyword(p.cur(), "doseq") {
		l, err := p.parseLoopHeader()
		if err != nil {
			return nil, err
		}
		loops = append(loops, l)
	}
	if len(loops) == 0 {
		return nil, p.errorf("expected doall or doseq")
	}
	var body []Stmt
	for !isKeyword(p.cur(), "enddoall") && !isKeyword(p.cur(), "enddoseq") {
		if p.at(tokEOF) {
			return nil, p.errorf("unexpected end of input inside loop body")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		body = append(body, s)
	}
	// Match the end keywords innermost-out.
	for k := len(loops) - 1; k >= 0; k-- {
		want := "enddoall"
		if loops[k].Kind == Doseq {
			want = "enddoseq"
		}
		if !isKeyword(p.cur(), want) {
			return nil, p.errorf("expected %s to close %s (%s)", want, loops[k].Kind, loops[k].Var)
		}
		p.advance()
	}
	if !p.at(tokEOF) {
		return nil, p.errorf("trailing input after loop nest")
	}
	return &Nest{Loops: loops, Body: body}, nil
}

func (p *parser) parseLoopHeader() (Loop, error) {
	kind := Doall
	if isKeyword(p.cur(), "doseq") {
		kind = Doseq
	}
	p.advance()
	if _, err := p.expect(tokLParen); err != nil {
		return Loop{}, err
	}
	v, err := p.expect(tokIdent)
	if err != nil {
		return Loop{}, err
	}
	if _, err := p.expect(tokComma); err != nil {
		return Loop{}, err
	}
	lo, err := p.parseBound()
	if err != nil {
		return Loop{}, err
	}
	if _, err := p.expect(tokComma); err != nil {
		return Loop{}, err
	}
	// `?NAME` keeps the upper bound symbolic instead of resolving it
	// against params: the nest's extent is unknown until run time.
	if p.at(tokQuestion) {
		p.advance()
		name, err := p.expect(tokIdent)
		if err != nil {
			return Loop{}, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return Loop{}, err
		}
		return Loop{Kind: kind, Var: v.text, Lo: lo, Hi: lo, SymHi: name.text}, nil
	}
	hi, err := p.parseBound()
	if err != nil {
		return Loop{}, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return Loop{}, err
	}
	return Loop{Kind: kind, Var: v.text, Lo: lo, Hi: hi}, nil
}

// parseBound parses an integer literal, a named parameter, or a negated
// form of either.
func (p *parser) parseBound() (int64, error) {
	neg := false
	if p.at(tokMinus) {
		neg = true
		p.advance()
	}
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.advance()
		v, err := parseInt(t.text)
		if err != nil {
			return 0, fmt.Errorf("%d:%d: %v", t.line, t.col, err)
		}
		if neg {
			v = -v
		}
		return v, nil
	case tokIdent:
		p.advance()
		v, ok := p.params[t.text]
		if !ok {
			return 0, fmt.Errorf("%d:%d: unknown loop-bound parameter %q", t.line, t.col, t.text)
		}
		if neg {
			v = -v
		}
		return v, nil
	default:
		return 0, fmt.Errorf("%d:%d: expected loop bound, found %s", t.line, t.col, t.kind)
	}
}

func parseInt(s string) (int64, error) {
	var v int64
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, fmt.Errorf("bad integer %q", s)
		}
		v = v*10 + int64(r-'0')
		if v < 0 {
			return 0, fmt.Errorf("integer overflow in %q", s)
		}
	}
	return v, nil
}

// parseStmt parses `[l$] Ref = Expr`.
func (p *parser) parseStmt() (Stmt, error) {
	atomic := false
	if p.at(tokAtomic) {
		atomic = true
		p.advance()
	}
	lhs, err := p.parseRef()
	if err != nil {
		return Stmt{}, err
	}
	if _, err := p.expect(tokAssign); err != nil {
		return Stmt{}, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return Stmt{}, err
	}
	return Stmt{LHS: lhs, RHS: rhs, Atomic: atomic}, nil
}

// parseRef parses `Name[sub, sub, ...]`. The caller has ensured the
// current token is an identifier followed by '['.
func (p *parser) parseRef() (Ref, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return Ref{}, err
	}
	if _, err := p.expect(tokLBracket); err != nil {
		return Ref{}, err
	}
	var subs []AffineExpr
	for {
		e, err := p.parseAffine()
		if err != nil {
			return Ref{}, err
		}
		subs = append(subs, e)
		if p.at(tokComma) {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return Ref{}, err
	}
	return Ref{Array: name.text, Subs: subs}, nil
}

// parseAffine parses a subscript expression and verifies it is affine:
// sums and differences of terms, where each term is an integer, a
// variable, or integer * variable (in either order). Terms accumulate
// into the one expression, so a subscript costs one coefficient map.
func (p *parser) parseAffine() (AffineExpr, error) {
	e := NewAffine(0)
	sign := int64(1)
	// Leading sign.
	for p.at(tokPlus) || p.at(tokMinus) {
		if p.at(tokMinus) {
			sign = -sign
		}
		p.advance()
	}
	for {
		v, n, err := p.parseAffineTerm()
		if err != nil {
			return AffineExpr{}, err
		}
		if v == "" {
			e.Const += n * sign
		} else if c := e.Coef[v] + n*sign; c != 0 {
			e.Coef[v] = c
		} else {
			delete(e.Coef, v)
		}
		if p.at(tokPlus) {
			sign = 1
			p.advance()
		} else if p.at(tokMinus) {
			sign = -1
			p.advance()
		} else {
			return e, nil
		}
	}
}

// parseAffineTerm parses n, v, n*v, or v*n, returning the term's variable
// ("" for a constant) and its coefficient (the constant itself).
func (p *parser) parseAffineTerm() (string, int64, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.advance()
		n, err := parseInt(t.text)
		if err != nil {
			return "", 0, fmt.Errorf("%d:%d: %v", t.line, t.col, err)
		}
		if p.at(tokStar) {
			p.advance()
			v, err := p.expect(tokIdent)
			if err != nil {
				return "", 0, err
			}
			return v.text, n, nil
		}
		return "", n, nil
	case tokIdent:
		p.advance()
		if p.at(tokStar) {
			p.advance()
			if p.at(tokIdent) {
				bad := p.cur()
				return "", 0, fmt.Errorf("%d:%d: subscripts must be affine: cannot multiply variables %q and %q", bad.line, bad.col, t.text, bad.text)
			}
			nt, err := p.expect(tokNumber)
			if err != nil {
				return "", 0, err
			}
			n, err := parseInt(nt.text)
			if err != nil {
				return "", 0, fmt.Errorf("%d:%d: %v", nt.line, nt.col, err)
			}
			return t.text, n, nil
		}
		return t.text, 1, nil
	default:
		return "", 0, fmt.Errorf("%d:%d: subscripts must be affine: expected number or variable, found %s", t.line, t.col, t.kind)
	}
}

// parseExpr parses the RHS with standard precedence: '*' binds tighter
// than '+'/'-'.
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.at(tokPlus) || p.at(tokMinus) {
		op := byte('+')
		if p.at(tokMinus) {
			op = '-'
		}
		p.advance()
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = BinExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseMul() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.at(tokStar) {
		p.advance()
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = BinExpr{Op: '*', Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.advance()
		v, err := parseInt(t.text)
		if err != nil {
			return nil, fmt.Errorf("%d:%d: %v", t.line, t.col, err)
		}
		return ConstExpr{Value: v}, nil
	case tokMinus:
		p.advance()
		e, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return BinExpr{Op: '-', Left: ConstExpr{0}, Right: e}, nil
	case tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		// Array reference if followed by '[', else variable use.
		if p.toks[p.pos+1].kind == tokLBracket {
			r, err := p.parseRef()
			if err != nil {
				return nil, err
			}
			return RefExpr{Ref: r}, nil
		}
		p.advance()
		return VarExpr{Name: t.text}, nil
	default:
		return nil, fmt.Errorf("%d:%d: expected expression, found %s", t.line, t.col, t.kind)
	}
}
