package iltext

import (
	"strconv"
	"strings"
)

// referenceTokenize is the tokenizer this package shipped before the
// parser cut tokens from the source on demand, kept verbatim as the
// oracle of differential_test.go: the whole input as a slice, up front.
func referenceTokenize(src string) []token {
	var toks []token
	line := 1
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '(' || c == ')':
			toks = append(toks, token{text: string(c), line: line})
			i++
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' && src[j] != '\n' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			lit := src[i:min(j+1, len(src))]
			if s, err := strconv.Unquote(lit); err == nil {
				toks = append(toks, token{text: s, str: true, line: line})
			} else {
				toks = append(toks, token{text: lit, str: true, line: line})
			}
			i = j + 1
		default:
			j := i
			for j < len(src) && !strings.ContainsAny(string(src[j]), " \t\r\n()\"#") {
				j++
			}
			toks = append(toks, token{text: src[i:j], line: line})
			i = j
		}
	}
	return toks
}

// Token is a token as package iltext_test sees it.
type Token struct {
	Text string
	Str  bool
	Line int
}

func exported(toks []token) []Token {
	out := make([]Token, len(toks))
	for i, t := range toks {
		out[i] = Token{t.text, t.str, t.line}
	}
	return out
}

// ReferenceTokens runs the reference tokenizer.
func ReferenceTokens(src string) []Token { return exported(referenceTokenize(src)) }

// LexTokens drains the parser's lexer the way the parser does: peek,
// then advance. The error is the lexer's own, nil at a clean end.
func LexTokens(src string) ([]Token, error) {
	p := &parser{src: src, line: 1}
	var toks []token
	for {
		if _, ok := p.peek(); !ok {
			return exported(toks), p.lexErr
		}
		t, _ := p.peek() // a second look must not move the lexer
		toks = append(toks, t)
		p.advance()
	}
}
