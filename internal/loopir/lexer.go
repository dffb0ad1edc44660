package loopir

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The loop language follows the paper's notation:
//
//	doall (i, 101, 200)
//	  doall (j, 1, 100)
//	    A[i,j] = B[i+j, i-j-1] + B[i+j+4, i-j+3]
//	  enddoall
//	enddoall
//
// Keywords: doall, doseq, enddoall, enddoseq. Bounds may be integer
// literals or named parameters supplied to Parse; an upper bound written
// `?NAME` stays symbolic — unknown until run time — and only strategies
// that need no concrete extents (cache-oblivious bisection) can plan the
// nest. Statements are assignments; the LHS may carry the fine-grain
// synchronization marker `l$` (Appendix A). Comments run from `#` or
// `//` to end of line.

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokComma
	tokAssign
	tokPlus
	tokMinus
	tokStar
	tokAtomic   // the "l$" marker
	tokQuestion // the "?" symbolic-bound marker
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokComma:
		return "','"
	case tokAssign:
		return "'='"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokAtomic:
		return "'l$'"
	case tokQuestion:
		return "'?'"
	default:
		return "unknown token"
	}
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// lexer scans the source in place: pos is a byte offset, col counts
// runes, and token text is a substring of the source, not a copy.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (lx *lexer) errorf(line, col int, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

// peek returns the rune at pos (0 at end of input); invalid UTF-8 reads
// as utf8.RuneError, one byte at a time.
func (lx *lexer) peek() rune {
	r, _ := lx.decode()
	return r
}

func (lx *lexer) decode() (rune, int) {
	if lx.pos >= len(lx.src) {
		return 0, 0
	}
	if b := lx.src[lx.pos]; b < utf8.RuneSelf {
		return rune(b), 1
	}
	return utf8.DecodeRuneInString(lx.src[lx.pos:])
}

func (lx *lexer) advance() rune {
	r, size := lx.decode()
	lx.pos += size
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		r := lx.peek()
		switch {
		case unicode.IsSpace(r):
			lx.advance()
		case r == '#':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case strings.HasPrefix(lx.src[lx.pos:], "//"):
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

func (lx *lexer) next() (token, error) {
	lx.skipSpaceAndComments()
	line, col := lx.line, lx.col
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	r := lx.peek()
	switch {
	case r == '(':
		lx.advance()
		return token{tokLParen, "(", line, col}, nil
	case r == ')':
		lx.advance()
		return token{tokRParen, ")", line, col}, nil
	case r == '[':
		lx.advance()
		return token{tokLBracket, "[", line, col}, nil
	case r == ']':
		lx.advance()
		return token{tokRBracket, "]", line, col}, nil
	case r == ',':
		lx.advance()
		return token{tokComma, ",", line, col}, nil
	case r == '=':
		lx.advance()
		return token{tokAssign, "=", line, col}, nil
	case r == '+':
		lx.advance()
		return token{tokPlus, "+", line, col}, nil
	case r == '-':
		lx.advance()
		return token{tokMinus, "-", line, col}, nil
	case r == '*':
		lx.advance()
		return token{tokStar, "*", line, col}, nil
	case r == '?':
		lx.advance()
		return token{tokQuestion, "?", line, col}, nil
	case unicode.IsDigit(r):
		start := lx.pos
		for lx.pos < len(lx.src) && unicode.IsDigit(lx.peek()) {
			lx.advance()
		}
		// The paper writes the atomic marker as "1$" in some scans of
		// Figure 11; accept both "l$" and "1$".
		if lx.src[start:lx.pos] == "1" && lx.peek() == '$' {
			lx.advance()
			return token{tokAtomic, "1$", line, col}, nil
		}
		return token{tokNumber, lx.src[start:lx.pos], line, col}, nil
	case unicode.IsLetter(r) || r == '_':
		start := lx.pos
		for lx.pos < len(lx.src) && (unicode.IsLetter(lx.peek()) || unicode.IsDigit(lx.peek()) || lx.peek() == '_') {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		if text == "l" && lx.peek() == '$' {
			lx.advance()
			return token{tokAtomic, "l$", line, col}, nil
		}
		return token{tokIdent, text, line, col}, nil
	default:
		return token{}, lx.errorf(line, col, "unexpected character %q", r)
	}
}

// maxPresizedTokens caps lexAll's up-front token capacity.
const maxPresizedTokens = 256

// lexAll tokenizes the whole input.
func lexAll(src string) ([]token, error) {
	lx := newLexer(src)
	// Sized for about two source bytes per token, capped so a large
	// body that is mostly comments or whitespace does not reserve
	// tokens it never produces; longer inputs grow the slice as usual.
	toks := make([]token, 0, min(len(src)/2+1, maxPresizedTokens))
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func isKeyword(t token, kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}
