// Package cc is Marion's compiler front end: a lexer, parser and type
// checker for the C subset the system compiles (the role Lcc plays in the
// paper). It produces a typed AST that ilgen lowers to the IL.
//
// The subset: void/char/short/int/long/unsigned/float/double, pointers,
// multi-dimensional arrays, functions, the full C expression grammar
// (including ?:, && and ||, compound assignment and ++/--) and the
// structured statements (if/else, while, do-while, for, break, continue,
// return). Structs, unions, switch and goto are not supported.
package cc

import (
	"fmt"
	"strconv"
)

// Tok is a lexical token kind.
type Tok uint8

const (
	tEOF Tok = iota
	tIdent
	tIntLit
	tFloatLit
	tCharLit
	// Keywords.
	tVoid
	tChar
	tShort
	tInt
	tLong
	tUnsigned
	tSigned
	tFloat
	tDouble
	tIf
	tElse
	tWhile
	tDo
	tFor
	tReturn
	tBreak
	tContinue
	tStatic
	tConst
	// Punctuation and operators.
	tLParen
	tRParen
	tLBrace
	tRBrace
	tLBrack
	tRBrack
	tSemi
	tComma
	tQuest
	tColon
	TAssign
	TPlusEq
	TMinusEq
	TStarEq
	TSlashEq
	TPercentEq
	TOrOr
	TAndAnd
	TPipe
	TCaret
	TAmp
	TEq
	TNe
	TLt
	TLe
	TGt
	TGe
	TShl
	TShr
	TPlus
	TMinus
	TStar
	TSlash
	TPercent
	TBang
	TTilde
	tInc
	TDec
)

var tokNames = map[Tok]string{
	tEOF: "end of file", tIdent: "identifier", tIntLit: "integer literal",
	tFloatLit: "float literal", tCharLit: "char literal",
	tVoid: "void", tChar: "char", tShort: "short", tInt: "int",
	tLong: "long", tUnsigned: "unsigned", tSigned: "signed",
	tFloat: "float", tDouble: "double",
	tIf: "if", tElse: "else", tWhile: "while", tDo: "do", tFor: "for",
	tReturn: "return", tBreak: "break", tContinue: "continue",
	tStatic: "static", tConst: "const",
	tLParen: "(", tRParen: ")", tLBrace: "{", tRBrace: "}",
	tLBrack: "[", tRBrack: "]", tSemi: ";", tComma: ",",
	tQuest: "?", tColon: ":", TAssign: "=",
	TPlusEq: "+=", TMinusEq: "-=", TStarEq: "*=", TSlashEq: "/=", TPercentEq: "%=",
	TOrOr: "||", TAndAnd: "&&", TPipe: "|", TCaret: "^", TAmp: "&",
	TEq: "==", TNe: "!=", TLt: "<", TLe: "<=", TGt: ">", TGe: ">=",
	TShl: "<<", TShr: ">>", TPlus: "+", TMinus: "-", TStar: "*",
	TSlash: "/", TPercent: "%", TBang: "!", TTilde: "~",
	tInc: "++", TDec: "--",
}

func (t Tok) String() string { return tokNames[t] }

var keywords = map[string]Tok{
	"void": tVoid, "char": tChar, "short": tShort, "int": tInt,
	"long": tLong, "unsigned": tUnsigned, "signed": tSigned,
	"float": tFloat, "double": tDouble, "if": tIf, "else": tElse,
	"while": tWhile, "do": tDo, "for": tFor, "return": tReturn,
	"break": tBreak, "continue": tContinue, "static": tStatic,
	"const": tConst,
}

// token is one token with its value and position.
type token struct {
	Kind Tok
	Text string
	IVal int64
	FVal float64
	Line int32
}

// posError is a front end diagnostic.
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
	line int32
}

func (lx *lexer) errf(format string, args ...interface{}) *posError {
	return &posError{File: lx.file, Line: int(lx.line), Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) at(off int) byte {
	if lx.pos+off < len(lx.src) {
		return lx.src[lx.pos+off]
	}
	return 0
}

func isAlpha(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}
func isNum(c byte) bool { return c >= '0' && c <= '9' }

func (lx *lexer) skip() error {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '/' && lx.at(1) == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.at(1) == '*':
			lx.pos += 2
			for {
				if lx.pos >= len(lx.src) {
					return lx.errf("unterminated comment")
				}
				if lx.src[lx.pos] == '\n' {
					lx.line++
				}
				if lx.src[lx.pos] == '*' && lx.at(1) == '/' {
					lx.pos += 2
					break
				}
				lx.pos++
			}
		case c == '#':
			// Preprocessor lines are ignored (the subset has no cpp).
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		default:
			return nil
		}
	}
	return nil
}

func (lx *lexer) next() (token, error) {
	if err := lx.skip(); err != nil {
		return token{}, err
	}
	tok := token{Line: lx.line}
	if lx.pos >= len(lx.src) {
		tok.Kind = tEOF
		return tok, nil
	}
	c := lx.src[lx.pos]

	if isAlpha(c) {
		start := lx.pos
		for lx.pos < len(lx.src) && (isAlpha(lx.src[lx.pos]) || isNum(lx.src[lx.pos])) {
			lx.pos++
		}
		text := lx.src[start:lx.pos]
		if kw, ok := keywords[text]; ok {
			tok.Kind = kw
			tok.Text = text
			return tok, nil
		}
		tok.Kind = tIdent
		tok.Text = text
		return tok, nil
	}

	if isNum(c) || (c == '.' && isNum(lx.at(1))) {
		start := lx.pos
		isFloat := false
		if c == '0' && (lx.at(1) == 'x' || lx.at(1) == 'X') {
			lx.pos += 2
			for lx.pos < len(lx.src) && isHex(lx.src[lx.pos]) {
				lx.pos++
			}
			v, err := strconv.ParseUint(lx.src[start+2:lx.pos], 16, 64)
			if err != nil {
				return tok, lx.errf("bad hex literal %q", lx.src[start:lx.pos])
			}
			tok.Kind = tIntLit
			tok.IVal = int64(int32(v))
			lx.eatIntSuffix()
			return tok, nil
		}
		for lx.pos < len(lx.src) && isNum(lx.src[lx.pos]) {
			lx.pos++
		}
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '.' {
			isFloat = true
			lx.pos++
			for lx.pos < len(lx.src) && isNum(lx.src[lx.pos]) {
				lx.pos++
			}
		}
		if lx.pos < len(lx.src) && (lx.src[lx.pos] == 'e' || lx.src[lx.pos] == 'E') {
			isFloat = true
			lx.pos++
			if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
				lx.pos++
			}
			for lx.pos < len(lx.src) && isNum(lx.src[lx.pos]) {
				lx.pos++
			}
		}
		text := lx.src[start:lx.pos]
		if isFloat {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return tok, lx.errf("bad float literal %q", text)
			}
			tok.Kind = tFloatLit
			tok.FVal = f
			if lx.pos < len(lx.src) && (lx.src[lx.pos] == 'f' || lx.src[lx.pos] == 'F') {
				lx.pos++
			}
			return tok, nil
		}
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return tok, lx.errf("bad integer literal %q", text)
		}
		tok.Kind = tIntLit
		tok.IVal = v
		lx.eatIntSuffix()
		return tok, nil
	}

	if c == '\'' {
		lx.pos++
		if lx.pos >= len(lx.src) {
			return tok, lx.errf("unterminated char literal")
		}
		var v int64
		if lx.src[lx.pos] == '\\' {
			lx.pos++
			switch lx.at(0) {
			case 'n':
				v = '\n'
			case 't':
				v = '\t'
			case 'r':
				v = '\r'
			case '0':
				v = 0
			case '\\':
				v = '\\'
			case '\'':
				v = '\''
			default:
				return tok, lx.errf("bad escape \\%c", lx.at(0))
			}
			lx.pos++
		} else {
			v = int64(lx.src[lx.pos])
			lx.pos++
		}
		if lx.at(0) != '\'' {
			return tok, lx.errf("unterminated char literal")
		}
		lx.pos++
		tok.Kind = tCharLit
		tok.IVal = v
		return tok, nil
	}

	one := func(k Tok) (token, error) { lx.pos++; tok.Kind = k; return tok, nil }
	two := func(k Tok) (token, error) { lx.pos += 2; tok.Kind = k; return tok, nil }
	switch c {
	case '(':
		return one(tLParen)
	case ')':
		return one(tRParen)
	case '{':
		return one(tLBrace)
	case '}':
		return one(tRBrace)
	case '[':
		return one(tLBrack)
	case ']':
		return one(tRBrack)
	case ';':
		return one(tSemi)
	case ',':
		return one(tComma)
	case '?':
		return one(tQuest)
	case ':':
		return one(tColon)
	case '~':
		return one(TTilde)
	case '=':
		if lx.at(1) == '=' {
			return two(TEq)
		}
		return one(TAssign)
	case '!':
		if lx.at(1) == '=' {
			return two(TNe)
		}
		return one(TBang)
	case '<':
		if lx.at(1) == '=' {
			return two(TLe)
		}
		if lx.at(1) == '<' {
			return two(TShl)
		}
		return one(TLt)
	case '>':
		if lx.at(1) == '=' {
			return two(TGe)
		}
		if lx.at(1) == '>' {
			return two(TShr)
		}
		return one(TGt)
	case '+':
		if lx.at(1) == '+' {
			return two(tInc)
		}
		if lx.at(1) == '=' {
			return two(TPlusEq)
		}
		return one(TPlus)
	case '-':
		if lx.at(1) == '-' {
			return two(TDec)
		}
		if lx.at(1) == '=' {
			return two(TMinusEq)
		}
		return one(TMinus)
	case '*':
		if lx.at(1) == '=' {
			return two(TStarEq)
		}
		return one(TStar)
	case '/':
		if lx.at(1) == '=' {
			return two(TSlashEq)
		}
		return one(TSlash)
	case '%':
		if lx.at(1) == '=' {
			return two(TPercentEq)
		}
		return one(TPercent)
	case '|':
		if lx.at(1) == '|' {
			return two(TOrOr)
		}
		return one(TPipe)
	case '&':
		if lx.at(1) == '&' {
			return two(TAndAnd)
		}
		return one(TAmp)
	case '^':
		return one(TCaret)
	}
	return tok, lx.errf("unexpected character %q", string(c))
}

func isHex(c byte) bool {
	return isNum(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func (lx *lexer) eatIntSuffix() {
	for lx.pos < len(lx.src) {
		switch lx.src[lx.pos] {
		case 'l', 'L', 'u', 'U':
			lx.pos++
		default:
			return
		}
	}
}
