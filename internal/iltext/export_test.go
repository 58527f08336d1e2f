package iltext

// Token is a token as package iltext_test sees it.
type Token struct {
	Text string
	Str  bool
	Line int
}

// LexTokens drains the parser's lexer the way the parser does: peek,
// then advance. The error is the lexer's own, nil at a clean end.
func LexTokens(src string) ([]Token, error) {
	p := &parser{src: src, line: 1}
	var toks []Token
	for {
		if _, ok := p.peek(); !ok {
			return toks, p.lexErr
		}
		t, _ := p.peek() // a second look must not move the lexer
		toks = append(toks, Token{t.text, t.str, t.line})
		p.advance()
	}
}

// IsNumber is the parser's probe for the end of an init list.
var IsNumber = isNumber
