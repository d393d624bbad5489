package spec

import (
	"testing"
)

// lexAll drives the lexer to TokEOF (included) or its first error.
func lexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

func kinds(ts []Token) []TokenKind {
	out := make([]TokenKind, len(ts))
	for i, t := range ts {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasicTokens(t *testing.T) {
	ts, err := lexAll("guardrail x { } ( ) , : ; + - * /")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{
		TokIdent, TokIdent, TokLBrace, TokRBrace, TokLParen, TokRParen,
		TokComma, TokColon, TokSemi, TokPlus, TokMinus, TokStar, TokSlash, TokEOF,
	}
	got := kinds(ts)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexOperators(t *testing.T) {
	ts, err := lexAll("< <= > >= == != && || !")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{TokLt, TokLe, TokGt, TokGe, TokEq, TokNe, TokAnd, TokOr, TokNot, TokEOF}
	got := kinds(ts)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"0", 0}, {"42", 42}, {"3.14", 3.14}, {"1e9", 1e9},
		{"2.5e-3", 2.5e-3}, {"1E6", 1e6}, {".5", 0.5},
	}
	for _, c := range cases {
		ts, err := lexAll(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if ts[0].Kind != TokNumber || ts[0].Num != c.want {
			t.Errorf("%q = %v (%v), want %v", c.src, ts[0].Num, ts[0].Kind, c.want)
		}
	}
}

func TestLexNumberFollowedByIdent(t *testing.T) {
	// "1e" without digits: the 'e' must not be consumed as an exponent.
	ts, err := lexAll("5e x")
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].Kind != TokNumber || ts[0].Num != 5 {
		t.Fatalf("first token = %+v", ts[0])
	}
	if ts[1].Kind != TokIdent || ts[1].Text != "e" {
		t.Fatalf("second token = %+v", ts[1])
	}
}

func TestLexComments(t *testing.T) {
	ts, err := lexAll("a // line comment\nb /* block\ncomment */ c")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 4 || ts[0].Text != "a" || ts[1].Text != "b" || ts[2].Text != "c" {
		t.Errorf("tokens = %+v", ts)
	}
}

func TestLexUnterminatedBlockComment(t *testing.T) {
	if _, err := lexAll("a /* never ends"); err == nil {
		t.Error("unterminated comment should error")
	}
}

func TestLexPositions(t *testing.T) {
	ts, err := lexAll("a\n  bb")
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].Pos != (Pos{1, 1}) {
		t.Errorf("a at %v", ts[0].Pos)
	}
	if ts[1].Pos != (Pos{2, 3}) {
		t.Errorf("bb at %v", ts[1].Pos)
	}
	if ts[1].Pos.String() != "2:3" {
		t.Errorf("pos string = %q", ts[1].Pos.String())
	}
}

func TestLexBadCharacters(t *testing.T) {
	for _, src := range []string{"@", "#", "$", "a & b", "a | b", "="} {
		if _, err := lexAll(src); err == nil {
			t.Errorf("%q should fail to lex", src)
		}
	}
}

func TestLexIdentifiers(t *testing.T) {
	ts, err := lexAll("false_submit_rate _x Abc9")
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].Text != "false_submit_rate" || ts[1].Text != "_x" || ts[2].Text != "Abc9" {
		t.Errorf("idents = %+v", ts)
	}
}

func TestTokenKindString(t *testing.T) {
	if TokLe.String() != "'<='" || TokEOF.String() != "end of input" {
		t.Error("kind names wrong")
	}
	if TokenKind(99).String() != "token(99)" {
		t.Error("unknown kind format")
	}
}
