// Package maril implements the Maril machine description language: the
// lexer, parser and semantic analysis that turn a description into a
// mach.Machine (the role of the paper's code generator generator).
package maril

import (
	"fmt"
	"strconv"
)

// tokKind classifies a token.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokDirective // %reg, %instr, ... (Text holds the name without '%')
	tokInt
	tokFloat
	tokDollar // $
	tokHash   // #
	tokStar   // *
	tokLBrace
	tokRBrace
	tokLBrack
	tokRBrack
	tokLParen
	tokRParen
	tokSemi
	tokComma
	tokColon
	tokDColon // ::
	tokDot
	tokPlus
	tokMinus
	tokSlash
	tokPercent // '%' not followed by a letter (modulus)
	tokAmp
	tokPipe
	tokCaret
	tokTilde
	tokBang
	tokAssign // =
	tokEq     // ==
	tokNe     // !=
	tokLt
	tokLe
	tokGt
	tokGe
	tokShl
	tokShr
	tokArrow // ==>
)

var tokNames = map[tokKind]string{
	tokEOF: "end of file", tokIdent: "identifier", tokDirective: "directive",
	tokInt: "integer", tokFloat: "float", tokDollar: "$", tokHash: "#",
	tokStar: "*", tokLBrace: "{", tokRBrace: "}", tokLBrack: "[",
	tokRBrack: "]", tokLParen: "(", tokRParen: ")", tokSemi: ";",
	tokComma: ",", tokColon: ":", tokDColon: "::", tokDot: ".",
	tokPlus: "+", tokMinus: "-", tokSlash: "/", tokPercent: "%",
	tokAmp: "&", tokPipe: "|", tokCaret: "^", tokTilde: "~", tokBang: "!",
	tokAssign: "=", tokEq: "==", tokNe: "!=", tokLt: "<", tokLe: "<=",
	tokGt: ">", tokGe: ">=", tokShl: "<<", tokShr: ">>", tokArrow: "==>",
}

func (k tokKind) String() string { return tokNames[k] }

// token is one lexical token.
type token struct {
	Kind tokKind
	Text string
	IVal int64
	FVal float64
	Line int
}

func (t token) String() string {
	switch t.Kind {
	case tokIdent:
		return t.Text
	case tokDirective:
		return "%" + t.Text
	case tokInt:
		return strconv.FormatInt(t.IVal, 10)
	case tokFloat:
		return strconv.FormatFloat(t.FVal, 'g', -1, 64)
	}
	return t.Kind.String()
}

// posError is a description error with position information.
type posError struct {
	File string
	Line int
	Msg  string
}

func (e *posError) Error() string { return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg) }

type lexer struct {
	file string
	src  string
	pos  int
	line int
}

func newLexer(file, src string) *lexer { return &lexer{file: file, src: src, line: 1} }

func (lx *lexer) errf(format string, args ...interface{}) *posError {
	return &posError{File: lx.file, Line: lx.line, Msg: fmt.Sprintf(format, args...)}
}

func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdentCont(c byte) bool {
	return isLetter(c) || isDigit(c) || c == '.'
}

func (lx *lexer) peekByte(off int) byte {
	if lx.pos+off < len(lx.src) {
		return lx.src[lx.pos+off]
	}
	return 0
}

func (lx *lexer) skipSpace() error {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '/' && lx.peekByte(1) == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.peekByte(1) == '*':
			lx.pos += 2
			for {
				if lx.pos >= len(lx.src) {
					return lx.errf("unterminated comment")
				}
				if lx.src[lx.pos] == '\n' {
					lx.line++
				}
				if lx.src[lx.pos] == '*' && lx.peekByte(1) == '/' {
					lx.pos += 2
					break
				}
				lx.pos++
			}
		default:
			return nil
		}
	}
	return nil
}

// next returns the next token.
func (lx *lexer) next() (token, error) {
	if err := lx.skipSpace(); err != nil {
		return token{}, err
	}
	tok := token{Line: lx.line}
	if lx.pos >= len(lx.src) {
		tok.Kind = tokEOF
		return tok, nil
	}
	c := lx.src[lx.pos]
	switch {
	case isLetter(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentCont(lx.src[lx.pos]) {
			lx.pos++
		}
		// An identifier must not end with '.'; back off trailing dots.
		for lx.pos > start+1 && lx.src[lx.pos-1] == '.' {
			lx.pos--
		}
		tok.Kind = tokIdent
		tok.Text = lx.src[start:lx.pos]
		return tok, nil

	case isDigit(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
			lx.pos++
		}
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '.' && isDigit(lx.peekByte(1)) {
			lx.pos++
			for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
				lx.pos++
			}
			f, err := strconv.ParseFloat(lx.src[start:lx.pos], 64)
			if err != nil {
				return tok, lx.errf("bad float %q", lx.src[start:lx.pos])
			}
			tok.Kind = tokFloat
			tok.FVal = f
			return tok, nil
		}
		v, err := strconv.ParseInt(lx.src[start:lx.pos], 10, 64)
		if err != nil {
			return tok, lx.errf("bad integer %q", lx.src[start:lx.pos])
		}
		tok.Kind = tokInt
		tok.IVal = v
		return tok, nil

	case c == '%':
		if isLetter(lx.peekByte(1)) {
			lx.pos++
			start := lx.pos
			for lx.pos < len(lx.src) && isIdentCont(lx.src[lx.pos]) {
				lx.pos++
			}
			tok.Kind = tokDirective
			tok.Text = lx.src[start:lx.pos]
			return tok, nil
		}
		lx.pos++
		tok.Kind = tokPercent
		return tok, nil
	}

	two := func(k tokKind) (token, error) {
		lx.pos += 2
		tok.Kind = k
		return tok, nil
	}
	one := func(k tokKind) (token, error) {
		lx.pos++
		tok.Kind = k
		return tok, nil
	}
	switch c {
	case '=':
		if lx.peekByte(1) == '=' {
			if lx.peekByte(2) == '>' {
				lx.pos += 3
				tok.Kind = tokArrow
				return tok, nil
			}
			return two(tokEq)
		}
		return one(tokAssign)
	case '!':
		if lx.peekByte(1) == '=' {
			return two(tokNe)
		}
		return one(tokBang)
	case '<':
		if lx.peekByte(1) == '=' {
			return two(tokLe)
		}
		if lx.peekByte(1) == '<' {
			return two(tokShl)
		}
		return one(tokLt)
	case '>':
		if lx.peekByte(1) == '=' {
			return two(tokGe)
		}
		if lx.peekByte(1) == '>' {
			return two(tokShr)
		}
		return one(tokGt)
	case ':':
		if lx.peekByte(1) == ':' {
			return two(tokDColon)
		}
		return one(tokColon)
	case '$':
		return one(tokDollar)
	case '#':
		return one(tokHash)
	case '*':
		return one(tokStar)
	case '{':
		return one(tokLBrace)
	case '}':
		return one(tokRBrace)
	case '[':
		return one(tokLBrack)
	case ']':
		return one(tokRBrack)
	case '(':
		return one(tokLParen)
	case ')':
		return one(tokRParen)
	case ';':
		return one(tokSemi)
	case ',':
		return one(tokComma)
	case '.':
		return one(tokDot)
	case '+':
		return one(tokPlus)
	case '-':
		return one(tokMinus)
	case '/':
		return one(tokSlash)
	case '&':
		return one(tokAmp)
	case '|':
		return one(tokPipe)
	case '^':
		return one(tokCaret)
	case '~':
		return one(tokTilde)
	}
	return tok, lx.errf("unexpected character %q", string(c))
}
