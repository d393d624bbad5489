package spec

import (
	"strconv"
)

// Lexer tokenizes guardrail source text. Create with NewLexer and pull
// tokens with Next; lexical errors are returned in-band.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return errAt(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token or a positioned error.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		return Token{Kind: TokIdent, Text: l.src[start:l.off], Pos: pos}, nil
	case isDigit(c) || (c == '.' && isDigit(l.peek2())):
		return l.number(pos)
	}
	l.advance()
	two := func(second byte, withKind, aloneKind TokenKind) (Token, error) {
		if l.peek() == second {
			l.advance()
			return Token{Kind: withKind, Pos: pos}, nil
		}
		if aloneKind == TokEOF {
			return Token{}, errAt(pos, "unexpected character %q", string(c))
		}
		return Token{Kind: aloneKind, Pos: pos}, nil
	}
	switch c {
	case '{':
		return Token{Kind: TokLBrace, Pos: pos}, nil
	case '}':
		return Token{Kind: TokRBrace, Pos: pos}, nil
	case '(':
		return Token{Kind: TokLParen, Pos: pos}, nil
	case ')':
		return Token{Kind: TokRParen, Pos: pos}, nil
	case ',':
		return Token{Kind: TokComma, Pos: pos}, nil
	case ':':
		return Token{Kind: TokColon, Pos: pos}, nil
	case ';':
		return Token{Kind: TokSemi, Pos: pos}, nil
	case '+':
		return Token{Kind: TokPlus, Pos: pos}, nil
	case '-':
		return Token{Kind: TokMinus, Pos: pos}, nil
	case '*':
		return Token{Kind: TokStar, Pos: pos}, nil
	case '/':
		return Token{Kind: TokSlash, Pos: pos}, nil
	case '<':
		return two('=', TokLe, TokLt)
	case '>':
		return two('=', TokGe, TokGt)
	case '=':
		return two('=', TokEq, TokEOF)
	case '!':
		return two('=', TokNe, TokNot)
	case '&':
		return two('&', TokAnd, TokEOF)
	case '|':
		return two('|', TokOr, TokEOF)
	}
	return Token{}, errAt(pos, "unexpected character %q", string(c))
}

func (l *Lexer) number(pos Pos) (Token, error) {
	start := l.off
	for l.off < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	if l.peek() == '.' && isDigit(l.peek2()) {
		l.advance()
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	if c := l.peek(); c == 'e' || c == 'E' {
		// Exponent must be followed by optional sign and digits.
		save := l.off
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		if !isDigit(l.peek()) {
			l.off = save // not an exponent; leave for the parser to reject
		} else {
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
	}
	text := l.src[start:l.off]
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return Token{}, errAt(pos, "malformed number %q", text)
	}
	return Token{Kind: TokNumber, Text: text, Num: v, Pos: pos}, nil
}
