package lexer

import (
	"testing"

	"repro/internal/token"
)

// scanAll lexes the whole input and returns every token, the final EOF
// included.
func scanAll(l *Lexer) []token.Token {
	var out []token.Token
	for {
		t := l.Next()
		out = append(out, t)
		if t.Kind == token.EOF {
			return out
		}
	}
}

func kinds(src string) []token.Kind {
	l := New(src)
	var out []token.Kind
	for _, t := range scanAll(l) {
		out = append(out, t.Kind)
	}
	return out
}

func eqKinds(t *testing.T, got []token.Kind, want ...token.Kind) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("token count = %d, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v\ngot:  %v\nwant: %v", i, got[i], want[i], got, want)
		}
	}
}

func TestScanDoHeader(t *testing.T) {
	eqKinds(t, kinds("do i = 1, UB"),
		token.DO, token.IDENT, token.ASSIGN, token.INT, token.COMMA, token.IDENT, token.EOF)
}

func TestScanAssignBothForms(t *testing.T) {
	eqKinds(t, kinds("A[i] := 1"),
		token.IDENT, token.LBRACKET, token.IDENT, token.RBRACKET, token.ASSIGN, token.INT, token.EOF)
	eqKinds(t, kinds("A(i) = 1"),
		token.IDENT, token.LPAREN, token.IDENT, token.RPAREN, token.ASSIGN, token.INT, token.EOF)
}

func TestScanOperators(t *testing.T) {
	eqKinds(t, kinds("a == b != c <= d >= e < f > g"),
		token.IDENT, token.EQ, token.IDENT, token.NEQ, token.IDENT, token.LEQ,
		token.IDENT, token.GEQ, token.IDENT, token.LT, token.IDENT, token.GT, token.IDENT, token.EOF)
	eqKinds(t, kinds("a + b - c * d / e % f"),
		token.IDENT, token.PLUS, token.IDENT, token.MINUS, token.IDENT, token.STAR,
		token.IDENT, token.SLASH, token.IDENT, token.MOD, token.IDENT, token.EOF)
}

func TestNewlinesFold(t *testing.T) {
	eqKinds(t, kinds("a := 1\n\n\n;;\nb := 2"),
		token.IDENT, token.ASSIGN, token.INT, token.NEWLINE,
		token.IDENT, token.ASSIGN, token.INT, token.EOF)
}

func TestCommentsStripped(t *testing.T) {
	eqKinds(t, kinds("a := 1 ! trailing comment\nb := 2 // slash comment\nc := 3"),
		token.IDENT, token.ASSIGN, token.INT, token.NEWLINE,
		token.IDENT, token.ASSIGN, token.INT, token.NEWLINE,
		token.IDENT, token.ASSIGN, token.INT, token.EOF)
}

func TestCommentOnlyLine(t *testing.T) {
	// A comment-only line leaves its newline behind as a separator token;
	// the parser skips leading separators.
	eqKinds(t, kinds("! whole line\na := 1"),
		token.NEWLINE, token.IDENT, token.ASSIGN, token.INT, token.EOF)
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	eqKinds(t, kinds("DO Enddo If THEN Else ENDIF and OR noT"),
		token.DO, token.ENDDO, token.IF, token.THEN, token.ELSE, token.ENDIF,
		token.AND, token.OR, token.NOT, token.EOF)
}

func TestIdentifiersKeepCase(t *testing.T) {
	l := New("Alpha beta_2 C")
	toks := scanAll(l)
	if toks[0].Text != "Alpha" || toks[1].Text != "beta_2" || toks[2].Text != "C" {
		t.Fatalf("identifier texts wrong: %v", toks)
	}
}

func TestPositions(t *testing.T) {
	l := New("a := 1\n  b := 2")
	toks := scanAll(l)
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v, want 1:1", toks[0].Pos)
	}
	// after NEWLINE: b is on line 2, col 3
	var bTok token.Token
	for _, tk := range toks {
		if tk.Kind == token.IDENT && tk.Text == "b" {
			bTok = tk
		}
	}
	if bTok.Pos.Line != 2 || bTok.Pos.Col != 3 {
		t.Errorf("b at %v, want 2:3", bTok.Pos)
	}
}

func TestIllegalColon(t *testing.T) {
	l := New("a : b")
	toks := scanAll(l)
	found := false
	for _, tk := range toks {
		if tk.Kind == token.ILLEGAL {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected ILLEGAL token for bare ':', got %v", toks)
	}
	if len(l.Errors()) == 0 {
		t.Fatal("expected a recorded lexical error")
	}
}

func TestIllegalDigitIdent(t *testing.T) {
	l := New("1abc := 2")
	toks := scanAll(l)
	if toks[0].Kind != token.ILLEGAL {
		t.Fatalf("expected ILLEGAL for 1abc, got %v", toks[0])
	}
}

func TestNotEqualAfterSpace(t *testing.T) {
	// "!=" must scan as NEQ, while "! =" begins a comment.
	eqKinds(t, kinds("a != b"), token.IDENT, token.NEQ, token.IDENT, token.EOF)
	eqKinds(t, kinds("a ! = b"), token.IDENT, token.EOF)
}

func TestEOFIsSticky(t *testing.T) {
	l := New("")
	for range 3 {
		if tk := l.Next(); tk.Kind != token.EOF {
			t.Fatalf("expected EOF, got %v", tk)
		}
	}
}

func TestSemicolonSeparator(t *testing.T) {
	eqKinds(t, kinds("a := 1; b := 2"),
		token.IDENT, token.ASSIGN, token.INT, token.NEWLINE,
		token.IDENT, token.ASSIGN, token.INT, token.EOF)
}
