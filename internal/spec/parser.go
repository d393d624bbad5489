package spec

import (
	"fmt"
	"strings"
)

// Parser is a recursive-descent parser for guardrail specifications.
type Parser struct {
	lex *Lexer
	cur Token
	err error
	// prevLine is the line of the token before cur.
	prevLine int
	// ruleTop is set while parsing a rule list outside parentheses and
	// call arguments, where a '-' that starts a line starts a new rule.
	ruleTop bool
}

// Parse parses a specification source into a File. The result has not
// been semantically checked; run Check on it before compiling.
func Parse(src string) (*File, error) {
	p := &Parser{lex: NewLexer(src)}
	p.next()
	if p.err != nil {
		return nil, p.err
	}
	f := &File{}
	for p.cur.Kind != TokEOF {
		if p.cur.Kind == TokIdent && p.cur.Text == "feature" {
			d, err := p.parseFeatureDecl()
			if err != nil {
				return nil, err
			}
			f.Features = append(f.Features, d)
			p.skipSeparators()
			continue
		}
		if p.cur.Kind == TokIdent && p.cur.Text == "assert" {
			d, err := p.parsePropertyDecl()
			if err != nil {
				return nil, err
			}
			f.Properties = append(f.Properties, d)
			p.skipSeparators()
			continue
		}
		g, err := p.parseGuardrail()
		if err != nil {
			return nil, err
		}
		f.Guardrails = append(f.Guardrails, g)
	}
	if len(f.Guardrails) == 0 {
		return nil, errAt(Pos{1, 1}, "no guardrails in input")
	}
	return f, nil
}

func (p *Parser) next() {
	if p.err != nil {
		return
	}
	p.prevLine = p.cur.Pos.Line
	t, err := p.lex.Next()
	if err != nil {
		p.err = err
		p.cur = Token{Kind: TokEOF, Pos: p.cur.Pos}
		return
	}
	p.cur = t
}

func (p *Parser) expect(k TokenKind) (Token, error) {
	if p.err != nil {
		return Token{}, p.err
	}
	if p.cur.Kind != k {
		return Token{}, errAt(p.cur.Pos, "expected %s, found %s", k, p.describeCur())
	}
	t := p.cur
	p.next()
	if p.err != nil {
		return Token{}, p.err
	}
	return t, nil
}

func (p *Parser) describeCur() string {
	switch p.cur.Kind {
	case TokIdent:
		return fmt.Sprintf("identifier %q", p.cur.Text)
	case TokNumber:
		return fmt.Sprintf("number %s", p.cur.Text)
	default:
		return p.cur.Kind.String()
	}
}

func (p *Parser) expectIdent(word string) error {
	if p.cur.Kind != TokIdent || p.cur.Text != word {
		return errAt(p.cur.Pos, "expected %q, found %s", word, p.describeCur())
	}
	p.next()
	return p.err
}

// skipSeparators consumes any run of ',' and ';' tokens.
func (p *Parser) skipSeparators() {
	for p.cur.Kind == TokComma || p.cur.Kind == TokSemi {
		p.next()
	}
}

func (p *Parser) parseGuardrail() (*Guardrail, error) {
	pos := p.cur.Pos
	if err := p.expectIdent("guardrail"); err != nil {
		return nil, err
	}
	name, err := p.parseHyphenName()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	g := &Guardrail{Name: name, Pos: pos}
	seen := map[string]bool{}
	for p.cur.Kind != TokRBrace {
		if p.cur.Kind == TokEOF {
			return nil, errAt(p.cur.Pos, "unexpected end of input inside guardrail %q", name)
		}
		secTok, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		section := secTok.Text
		if section != "trigger" && section != "rule" && section != "action" {
			return nil, errAt(secTok.Pos, "unknown section %q (want trigger, rule, or action)", section)
		}
		if seen[section] {
			return nil, errAt(secTok.Pos, "duplicate section %q", section)
		}
		seen[section] = true
		if _, err := p.expect(TokColon); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLBrace); err != nil {
			return nil, err
		}
		switch section {
		case "trigger":
			if err := p.parseTriggers(g); err != nil {
				return nil, err
			}
		case "rule":
			if err := p.parseRules(g); err != nil {
				return nil, err
			}
		case "action":
			if err := p.parseActions(g); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(TokRBrace); err != nil {
			return nil, err
		}
		p.skipSeparators()
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	return g, nil
}

// parseFeatureDecl parses a top-level feature range declaration:
//
//	feature <key> range(<lo>, <hi>)
func (p *Parser) parseFeatureDecl() (*FeatureDecl, error) {
	pos := p.cur.Pos
	if err := p.expectIdent("feature"); err != nil {
		return nil, err
	}
	key, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if err := p.expectIdent("range"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	lo, err := p.parseSignedNumber()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokComma); err != nil {
		return nil, err
	}
	hi, err := p.parseSignedNumber()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return &FeatureDecl{Key: key.Text, Lo: lo, Hi: hi, Pos: pos}, nil
}

// parseSignedNumber parses an optionally negated numeric literal.
func (p *Parser) parseSignedNumber() (float64, error) {
	neg := false
	if p.cur.Kind == TokMinus {
		neg = true
		p.next()
	}
	t, err := p.expect(TokNumber)
	if err != nil {
		return 0, err
	}
	if neg {
		return -t.Num, nil
	}
	return t.Num, nil
}

// parseHyphenName parses identifiers joined by hyphens
// ("low-false-submit") into a single name.
func (p *Parser) parseHyphenName() (string, error) {
	first, err := p.expect(TokIdent)
	if err != nil {
		return "", err
	}
	parts := []string{first.Text}
	for p.cur.Kind == TokMinus {
		p.next()
		part, err := p.expect(TokIdent)
		if err != nil {
			return "", err
		}
		parts = append(parts, part.Text)
	}
	return strings.Join(parts, "-"), nil
}

func (p *Parser) parseTriggers(g *Guardrail) error {
	p.skipSeparators()
	for p.cur.Kind != TokRBrace {
		t, err := p.parseTrigger()
		if err != nil {
			return err
		}
		g.Triggers = append(g.Triggers, t)
		p.skipSeparators()
	}
	return nil
}

func (p *Parser) parseTrigger() (Trigger, error) {
	tok, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	switch tok.Text {
	case "TIMER":
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		var args []float64
		for i := 0; ; i++ {
			v, err := p.parseTimerArg(i)
			if err != nil {
				return nil, err
			}
			args = append(args, v)
			if p.cur.Kind == TokComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		t := &TimerTrigger{Pos: tok.Pos}
		switch len(args) {
		case 2:
			t.Start, t.Interval = args[0], args[1]
		case 3:
			t.Start, t.Interval, t.Stop = args[0], args[1], args[2]
		default:
			return nil, errAt(tok.Pos, "TIMER takes 2 or 3 arguments (start, interval[, stop]), got %d", len(args))
		}
		return t, nil
	case "FUNCTION":
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		site, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return &FuncTrigger{Site: site.Text}, nil
	default:
		return nil, errAt(tok.Pos, "unknown trigger %q (want TIMER or FUNCTION)", tok.Text)
	}
}

// parseTimerArg accepts a number or the symbolic identifiers start_time
// / stop_time (both meaning 0: boot and forever, matching the paper's
// Listing 2 usage).
func (p *Parser) parseTimerArg(i int) (float64, error) {
	neg := false
	if p.cur.Kind == TokMinus {
		neg = true
		p.next()
	}
	switch p.cur.Kind {
	case TokNumber:
		if neg {
			v := -p.cur.Num
			p.next()
			return v, nil
		}
		v := p.cur.Num
		p.next()
		return v, nil
	case TokIdent:
		switch p.cur.Text {
		case "start_time", "stop_time":
			p.next()
			return 0, nil
		}
		return 0, errAt(p.cur.Pos, "TIMER argument %d must be a number, start_time, or stop_time; found %q", i+1, p.cur.Text)
	default:
		return 0, errAt(p.cur.Pos, "TIMER argument %d must be a number; found %s", i+1, p.describeCur())
	}
}

// parseRules parses a rule list. Rules are separated by ';', ',' or a
// newline: a line that starts with '-' begins a new rule rather than
// subtracting from the one before.
func (p *Parser) parseRules(g *Guardrail) error {
	p.ruleTop = true
	p.skipSeparators()
	for p.cur.Kind != TokRBrace {
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		g.Rules = append(g.Rules, e)
		p.skipSeparators()
	}
	p.ruleTop = false
	return nil
}

func (p *Parser) parseActions(g *Guardrail) error {
	p.skipSeparators()
	for p.cur.Kind != TokRBrace {
		a, err := p.parseAction()
		if err != nil {
			return err
		}
		g.Actions = append(g.Actions, a)
		p.skipSeparators()
	}
	return nil
}

func (p *Parser) parseAction() (Action, error) {
	tok, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	open := func() error { _, err := p.expect(TokLParen); return err }
	closeP := func() error { _, err := p.expect(TokRParen); return err }
	switch tok.Text {
	case "REPORT":
		if err := open(); err != nil {
			return nil, err
		}
		a := &ReportAction{}
		if p.cur.Kind != TokRParen {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				a.Args = append(a.Args, e)
				if p.cur.Kind != TokComma {
					break
				}
				p.next()
			}
		}
		return a, closeP()
	case "REPLACE":
		if err := open(); err != nil {
			return nil, err
		}
		oldT, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokComma); err != nil {
			return nil, err
		}
		newT, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		return &ReplaceAction{Old: oldT.Text, New: newT.Text, Pos: tok.Pos}, closeP()
	case "RETRAIN":
		if err := open(); err != nil {
			return nil, err
		}
		m, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		return &RetrainAction{Model: m.Text, Pos: tok.Pos}, closeP()
	case "DEPRIORITIZE":
		if err := open(); err != nil {
			return nil, err
		}
		target, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		a := &DeprioritizeAction{Target: target.Text, Pos: tok.Pos}
		if p.cur.Kind == TokComma {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			a.Priority = e
		}
		return a, closeP()
	case "SAVE":
		if err := open(); err != nil {
			return nil, err
		}
		key, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokComma); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &SaveAction{Key: key.Text, Value: e, Pos: tok.Pos}, closeP()
	default:
		return nil, errAt(tok.Pos, "unknown action %q (want REPORT, REPLACE, RETRAIN, DEPRIORITIZE, or SAVE)", tok.Text)
	}
}

// Expression grammar, lowest to highest precedence:
//
//	or   := and ('||' and)*
//	and  := cmp ('&&' cmp)*
//	cmp  := add (('<'|'<='|'>'|'>='|'=='|'!=') add)?   (non-associative)
//	add  := mul (('+'|'-') mul)*   (in a rule list, a '-' that starts a
//	                                 line starts the next rule instead)
//	mul  := unary (('*'|'/') unary)*
//	unary := ('-'|'!') unary | primary
//	primary := NUMBER | 'true' | 'false' | LOAD '(' ident ')'
//	         | ident '(' args ')' | ident | '(' or ')'
func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur.Kind == TokOr {
		pos := p.cur.Pos
		p.next()
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Op: TokOr, X: x, Y: y, Pos: pos}
	}
	return x, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	x, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.cur.Kind == TokAnd {
		pos := p.cur.Pos
		p.next()
		y, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Op: TokAnd, X: x, Y: y, Pos: pos}
	}
	return x, nil
}

func (p *Parser) parseCmp() (Expr, error) {
	x, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	switch p.cur.Kind {
	case TokLt, TokLe, TokGt, TokGe, TokEq, TokNe:
		op := p.cur.Kind
		pos := p.cur.Pos
		p.next()
		y, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: op, X: x, Y: y, Pos: pos}, nil
	}
	return x, nil
}

func (p *Parser) parseAdd() (Expr, error) {
	x, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.cur.Kind == TokPlus || p.cur.Kind == TokMinus {
		if p.cur.Kind == TokMinus && p.ruleTop && p.cur.Pos.Line > p.prevLine {
			break // a new rule
		}
		op := p.cur.Kind
		pos := p.cur.Pos
		p.next()
		y, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Op: op, X: x, Y: y, Pos: pos}
	}
	return x, nil
}

func (p *Parser) parseMul() (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur.Kind == TokStar || p.cur.Kind == TokSlash {
		op := p.cur.Kind
		pos := p.cur.Pos
		p.next()
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Op: op, X: x, Y: y, Pos: pos}
	}
	return x, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.cur.Kind == TokMinus || p.cur.Kind == TokNot {
		op := p.cur.Kind
		pos := p.cur.Pos
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: op, X: x, Pos: pos}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.cur.Kind {
	case TokNumber:
		e := &NumLit{Value: p.cur.Num, Pos: p.cur.Pos}
		p.next()
		return e, nil
	case TokLParen:
		p.next()
		top := p.ruleTop
		p.ruleTop = false
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		p.ruleTop = top
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokIdent:
		tok := p.cur
		p.next()
		switch tok.Text {
		case "true":
			return &BoolLit{Value: true, Pos: tok.Pos}, nil
		case "false":
			return &BoolLit{Value: false, Pos: tok.Pos}, nil
		case "LOAD":
			if _, err := p.expect(TokLParen); err != nil {
				return nil, err
			}
			key, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			return &LoadExpr{Key: key.Text, Pos: tok.Pos}, nil
		}
		if p.cur.Kind == TokLParen {
			p.next()
			top := p.ruleTop
			p.ruleTop = false
			call := &CallExpr{Fn: tok.Text, Pos: tok.Pos}
			if p.cur.Kind != TokRParen {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if p.cur.Kind != TokComma {
						break
					}
					p.next()
				}
			}
			p.ruleTop = top
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			return call, nil
		}
		return &IdentExpr{Name: tok.Text, Pos: tok.Pos}, nil
	default:
		if p.err != nil {
			return nil, p.err
		}
		return nil, errAt(p.cur.Pos, "expected expression, found %s", p.describeCur())
	}
}
