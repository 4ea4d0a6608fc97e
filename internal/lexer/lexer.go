// Package lexer implements the scanner for the loop mini-language.
//
// The scanner is a straightforward hand-written state machine over a byte
// slice. It folds consecutive newlines and semicolons into a single NEWLINE
// token, strips comments introduced by '!' or "//" through end of line, and
// accepts both ":=" and "=" as the assignment operator (the parser decides
// from context whether '=' means assignment or is part of a DO header).
package lexer

import (
	"fmt"
	"strings"

	"repro/internal/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans an input buffer and produces tokens one at a time. It is
// zero-copy: the buffer is never re-sliced into fresh strings on the hot
// path — identifiers go through a program-scoped intern table (one canonical
// string per distinct spelling) and integer literals are parsed in place
// into Token.Val.
type Lexer struct {
	src         []byte
	off         int // byte offset of the next unread byte
	line        int
	col         int
	errs        []*Error
	atLineStart bool
	in          *token.Interner
	directives  []token.Directive
	// recent caches the last symbol interned per hash bucket of its
	// spelling: loop bodies repeat a handful of names, and a hit costs a
	// short compare instead of a map lookup.
	recent [128]token.Sym
}

// New returns a lexer over src.
func New(src string) *Lexer { return NewBytes([]byte(src), nil) }

// NewBytes returns a lexer over a raw byte buffer, which must not be
// mutated while the lexer (or any AST derived from it) is in use. If in is
// nil a fresh intern table is created; passing a shared table lets callers
// amortize identifier interning across many programs (see driver.AnalyzeBatch).
func NewBytes(src []byte, in *token.Interner) *Lexer {
	if in == nil {
		in = token.NewInterner()
	}
	return &Lexer{src: src, line: 1, col: 1, atLineStart: true, in: in}
}

// Interner returns the identifier intern table the lexer populates.
func (l *Lexer) Interner() *token.Interner { return l.in }

// Progress returns how many bytes of its buffer the lexer has scanned, and
// the buffer's length.
func (l *Lexer) Progress() (done, total int) { return l.off, len(l.src) }

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errs }

// Directives returns the lint control comments seen so far, in source
// order (see token.Directive).
func (l *Lexer) Directives() []token.Directive { return l.directives }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *Lexer) advance() byte {
	if l.off >= len(l.src) {
		return 0
	}
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

func (l *Lexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }
func isDigit(c byte) bool { return '0' <= c && c <= '9' }
func isLetter(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}
func isIdentPart(c byte) bool { return isLetter(c) || isDigit(c) }

// skipSpaceAndComments consumes blanks and comments but not newlines.
// Comments whose body begins with "lint:" are control directives: they are
// parsed and recorded (or reported as lexical errors when malformed)
// instead of being discarded silently.
func (l *Lexer) skipSpaceAndComments() {
	for {
		for isSpace(l.peek()) {
			l.advance()
		}
		if (l.peek() == '!' && l.peekAt(1) != '=') || (l.peek() == '/' && l.peekAt(1) == '/') {
			pos := l.pos()
			if l.peek() == '/' {
				l.advance() // second '/' consumed below
			}
			l.advance()
			body := l.off
			for l.peek() != '\n' && l.peek() != 0 {
				l.advance()
			}
			l.scanDirective(pos, string(l.src[body:l.off]))
			continue
		}
		return
	}
}

// scanDirective recognizes lint control comments. body is the comment text
// after the marker; anything not starting with "lint:" is an ordinary
// comment and ignored.
func (l *Lexer) scanDirective(pos token.Pos, body string) {
	trimmed := strings.TrimLeft(body, " \t")
	if !strings.HasPrefix(trimmed, "lint:") {
		return
	}
	const verb = "lint:ignore"
	if !strings.HasPrefix(trimmed, verb) {
		l.errorf(pos, "unknown lint directive %q (only lint:ignore is defined)",
			strings.Fields(trimmed)[0])
		return
	}
	rest := strings.TrimLeft(trimmed[len(verb):], " \t")
	fields := strings.SplitN(rest, " ", 2)
	if len(fields) < 2 || fields[0] == "" || strings.TrimSpace(fields[1]) == "" {
		l.errorf(pos, "malformed lint:ignore directive (want //lint:ignore analyzer[,analyzer...] reason)")
		return
	}
	var ids []string
	for _, id := range strings.Split(fields[0], ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			l.errorf(pos, "malformed lint:ignore directive: empty analyzer ID in %q", fields[0])
			return
		}
		ids = append(ids, id)
	}
	l.directives = append(l.directives, token.Directive{
		Pos: pos, IDs: ids, Reason: strings.TrimSpace(fields[1]),
	})
}

// Next returns the next token. At end of input it returns EOF forever.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	pos := l.pos()
	c := l.peek()

	switch {
	case c == 0:
		return token.Token{Kind: token.EOF, Pos: pos}

	case c == '\n' || c == ';':
		// Fold a run of separators (and interleaved blanks/comments) into one.
		for {
			if l.peek() == '\n' || l.peek() == ';' {
				l.advance()
				l.skipSpaceAndComments()
				continue
			}
			break
		}
		return token.Token{Kind: token.NEWLINE, Text: "\\n", Pos: pos}

	case isDigit(c):
		start := l.off
		var val int64
		overflow := false
		for isDigit(l.peek()) {
			d := int64(l.advance() - '0')
			if val > (1<<63-1-d)/10 {
				overflow = true
			} else {
				val = val*10 + d
			}
		}
		if isLetter(l.peek()) {
			bad := l.pos()
			for isIdentPart(l.peek()) {
				l.advance()
			}
			l.errorf(bad, "identifier may not start with a digit")
			return token.Token{Kind: token.ILLEGAL, Text: string(l.src[start:l.off]), Pos: pos}
		}
		if overflow {
			l.errorf(pos, "integer literal %s overflows int64", string(l.src[start:l.off]))
			return token.Token{Kind: token.INT, Val: 1<<63 - 1, Pos: pos}
		}
		return token.Token{Kind: token.INT, Val: val, Pos: pos}

	case isLetter(c):
		start := l.off
		letters := true // keywords are two or more letters, nothing else
		h := 0
		for isIdentPart(l.peek()) {
			c := l.advance()
			h = h*31 + int(c)
			if !isLetter(c) {
				letters = false
			}
		}
		word := l.src[start:l.off]
		if letters && len(word) > 1 {
			if kind := token.LookupBytes(word); kind != token.IDENT {
				return token.Token{Kind: kind, Text: kind.String(), Pos: pos}
			}
		}
		slot := &l.recent[h&(len(l.recent)-1)]
		if name := l.in.Name(*slot); name == string(word) {
			return token.Token{Kind: token.IDENT, Text: name, Sym: *slot, Pos: pos}
		}
		*slot = l.in.Intern(word)
		return token.Token{Kind: token.IDENT, Text: l.in.Name(*slot), Sym: *slot, Pos: pos}
	}

	// Operators and punctuation.
	l.advance()
	two := func(next byte, yes, no token.Kind) token.Token {
		if l.peek() == next {
			l.advance()
			return token.Token{Kind: yes, Text: yes.String(), Pos: pos}
		}
		return token.Token{Kind: no, Text: no.String(), Pos: pos}
	}

	switch c {
	case ':':
		if l.peek() == '=' {
			l.advance()
			return token.Token{Kind: token.ASSIGN, Text: ":=", Pos: pos}
		}
		l.errorf(pos, "unexpected ':' (did you mean ':='?)")
		return token.Token{Kind: token.ILLEGAL, Text: ":", Pos: pos}
	case '=':
		if l.peek() == '=' {
			l.advance()
			return token.Token{Kind: token.EQ, Text: "==", Pos: pos}
		}
		// Bare '=' doubles as assignment (Fortran style) — the parser
		// normalizes it. Report it as ASSIGN.
		return token.Token{Kind: token.ASSIGN, Text: "=", Pos: pos}
	case '!':
		// '!' not followed by '=' starts a comment; that case is consumed by
		// skipSpaceAndComments, so reaching here means "!=".
		if l.peek() == '=' {
			l.advance()
			return token.Token{Kind: token.NEQ, Text: "!=", Pos: pos}
		}
		return token.Token{Kind: token.ILLEGAL, Text: "!", Pos: pos}
	case '<':
		return two('=', token.LEQ, token.LT)
	case '>':
		return two('=', token.GEQ, token.GT)
	case '+':
		return token.Token{Kind: token.PLUS, Text: "+", Pos: pos}
	case '-':
		return token.Token{Kind: token.MINUS, Text: "-", Pos: pos}
	case '*':
		return token.Token{Kind: token.STAR, Text: "*", Pos: pos}
	case '/':
		return token.Token{Kind: token.SLASH, Text: "/", Pos: pos}
	case '%':
		return token.Token{Kind: token.MOD, Text: "%", Pos: pos}
	case '(':
		return token.Token{Kind: token.LPAREN, Text: "(", Pos: pos}
	case ')':
		return token.Token{Kind: token.RPAREN, Text: ")", Pos: pos}
	case '[':
		return token.Token{Kind: token.LBRACKET, Text: "[", Pos: pos}
	case ']':
		return token.Token{Kind: token.RBRACKET, Text: "]", Pos: pos}
	case ',':
		return token.Token{Kind: token.COMMA, Text: ",", Pos: pos}
	}

	l.errorf(pos, "illegal character %q", c)
	return token.Token{Kind: token.ILLEGAL, Text: string(c), Pos: pos}
}
