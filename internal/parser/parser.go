// Package parser implements a recursive-descent parser for the loop
// mini-language (see internal/ast for the grammar's shape).
//
// Grammar (EBNF, NEWLINE separates statements):
//
//	program  = block EOF .
//	block    = { stmt NEWLINE } .
//	stmt     = doloop | ifstmt | assign | dim .
//	doloop   = "do" IDENT "=" expr "," expr [ "," expr ] NEWLINE block "enddo" .
//	dim      = "dim" IDENT ( "[" exprlist "]" | "(" exprlist ")" ) .
//	ifstmt   = "if" expr "then" [NEWLINE] block [ "else" [NEWLINE] block ] "endif" .
//	assign   = lvalue (":=" | "=") expr .
//	lvalue   = IDENT [ "[" exprlist "]" | "(" exprlist ")" ] .
//	expr     = orexpr .
//	orexpr   = andexpr { "or" andexpr } .
//	andexpr  = relexpr { "and" relexpr } .
//	relexpr  = addexpr [ relop addexpr ] .
//	addexpr  = mulexpr { ("+"|"-") mulexpr } .
//	mulexpr  = unary { ("*"|"/"|"%") unary } .
//	unary    = [ "-" | "not" ] primary .
//	primary  = INT | IDENT [ "[" exprlist "]" | "(" exprlist ")" ]
//	         | "(" expr ")" .
//
// A parenthesized suffix after an identifier is an array reference (Fortran
// style) — the language has no function calls, so there is no ambiguity. The
// surface form X(i) and X[i] are equivalent; the printer always emits [].
package parser

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/token"
)

// Error is a syntax error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList collects parse errors; it implements error.
type ErrorList []*Error

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	var b strings.Builder
	b.WriteString(l[0].Error())
	fmt.Fprintf(&b, " (and %d more errors)", len(l)-1)
	return b.String()
}

// parser pulls tokens from the lexer one at a time: it holds only the
// current token, plus a count of the tokens consumed so far, which
// parseBlock uses to detect a statement that made no progress. Its nodes
// and lists come from one allocator per parse.
type parser struct {
	lx     *lexer.Lexer
	tok    token.Token // current token
	used   int         // tokens consumed
	errs   ErrorList   // syntax errors; lexical errors are the lexer's
	nextDo int         // next DoLoop label
	a      ast.Alloc
}

// Parse parses source text into a Program. On syntax errors it returns the
// partial AST together with an ErrorList.
func Parse(src string) (*ast.Program, error) {
	return parseLexer(lexer.New(src))
}

// ParseBytes parses a raw source buffer without copying it. The buffer must
// not be mutated afterwards (identifier spellings are interned, but the
// lexer reads the buffer in place). If in is non-nil it is used as the
// identifier intern table, letting callers share one table across programs.
func ParseBytes(src []byte, in *token.Interner) (*ast.Program, error) {
	return parseLexer(lexer.NewBytes(src, in))
}

func parseLexer(lx *lexer.Lexer) (*ast.Program, error) {
	p := &parser{lx: lx, tok: lx.Next(), nextDo: 1}
	p.a.Extrapolate(lx.Progress)
	prog := &ast.Program{Syms: lx.Interner()}
	p.skipSeparators()
	prog.Body = p.parseBlock()
	if p.tok.Kind != token.EOF {
		p.errorf("unexpected %s at top level", p.tok)
		// Parsing stops here, but the rest of the input is still scanned:
		// its lexical errors and lint directives belong to the result.
		for p.tok.Kind != token.EOF {
			p.tok = lx.Next()
		}
	}
	prog.Directives = lx.Directives()
	lexErrs := lx.Errors()
	if len(lexErrs)+len(p.errs) == 0 {
		return prog, nil
	}
	// Every lexical error comes first, then the syntax errors.
	errs := make(ErrorList, 0, len(lexErrs)+len(p.errs))
	for _, le := range lexErrs {
		errs = append(errs, &Error{Pos: le.Pos, Msg: le.Msg})
	}
	return prog, append(errs, p.errs...)
}

// MustParse parses src and panics on error. Intended for tests and examples
// with literal sources.
func MustParse(src string) *ast.Program {
	prog, err := Parse(src)
	if err != nil {
		panic("parser.MustParse: " + err.Error())
	}
	return prog
}

func (p *parser) cur() token.Token { return p.tok }

// next consumes the current token. EOF is never consumed.
func (p *parser) next() {
	if p.tok.Kind != token.EOF {
		p.tok = p.lx.Next()
		p.used++
	}
}

func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) token.Token {
	if t := p.tok; t.Kind == k {
		p.next()
		return t
	}
	p.errorf("expected %s, found %s", k, p.cur())
	return token.Token{Kind: k, Pos: p.cur().Pos}
}

func (p *parser) errorf(format string, args ...any) {
	p.errs = append(p.errs, &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)})
}

func (p *parser) skipSeparators() {
	for p.at(token.NEWLINE) {
		p.next()
	}
}

// syncStmt skips tokens until a plausible statement boundary, bounding error
// cascades.
func (p *parser) syncStmt() {
	for {
		switch p.cur().Kind {
		case token.NEWLINE:
			p.next()
			return
		case token.EOF, token.ENDDO, token.ENDIF, token.ELSE:
			return
		}
		p.next()
	}
}

// parseBlock parses statements until one of the closers (ENDDO/ENDIF/ELSE) or
// EOF is seen. The closer itself is not consumed.
func (p *parser) parseBlock() []ast.Stmt {
	mark := p.a.StmtMark()
	for {
		p.skipSeparators()
		k := p.cur().Kind
		if k == token.EOF || k == token.ENDDO || k == token.ENDIF || k == token.ELSE {
			return p.a.PopStmts(mark)
		}
		before := p.used
		s := p.parseStmt()
		if s != nil {
			p.a.PushStmt(s)
		}
		if p.used == before {
			// No progress: drop the offending token to guarantee termination.
			p.errorf("unexpected %s", p.cur())
			p.next()
			p.syncStmt()
		}
	}
}

func (p *parser) parseStmt() ast.Stmt {
	switch p.cur().Kind {
	case token.DO:
		return p.parseDo()
	case token.IF:
		return p.parseIf()
	case token.DIM:
		return p.parseDim()
	case token.IDENT:
		return p.parseAssign()
	default:
		p.errorf("expected statement, found %s", p.cur())
		p.syncStmt()
		return nil
	}
}

func (p *parser) parseDo() ast.Stmt {
	doTok := p.expect(token.DO)
	name := p.expect(token.IDENT)
	// Both "do i = 1, n" and "do i := 1, n" are accepted.
	if !p.accept(token.ASSIGN) {
		p.errorf("expected '=' in do header, found %s", p.cur())
	}
	lo := p.parseExpr()
	p.expect(token.COMMA)
	hi := p.parseExpr()
	var step ast.Expr
	if p.accept(token.COMMA) {
		step = p.parseExpr()
	}
	loop := p.a.DoLoop(ast.DoLoop{DoPos: doTok.Pos, Var: name.Text, VarSym: name.Sym, Lo: lo, Hi: hi, Step: step, Label: p.nextDo})
	p.nextDo++
	if !p.at(token.EOF) {
		p.expect(token.NEWLINE)
	}
	loop.Body = p.parseBlock()
	p.expect(token.ENDDO)
	return loop
}

func (p *parser) parseIf() ast.Stmt {
	ifTok := p.expect(token.IF)
	cond := p.parseExpr()
	p.expect(token.THEN)

	// Single-line form: "if c then stmt" with no newline before the body and
	// no endif; the body is exactly one simple statement.
	if !p.at(token.NEWLINE) && !p.at(token.EOF) {
		body := p.parseStmt()
		st := p.a.If(ast.If{IfPos: ifTok.Pos, Cond: cond})
		if body != nil {
			st.Then = p.a.Stmts(1)
			st.Then[0] = body
		}
		return st
	}

	p.skipSeparators()
	st := p.a.If(ast.If{IfPos: ifTok.Pos, Cond: cond})
	st.Then = p.parseBlock()
	if p.accept(token.ELSE) {
		p.skipSeparators()
		st.Else = p.parseBlock()
		if st.Else == nil {
			st.Else = []ast.Stmt{}
		}
	}
	p.expect(token.ENDIF)
	return st
}

func (p *parser) parseDim() ast.Stmt {
	dimTok := p.expect(token.DIM)
	name := p.expect(token.IDENT)
	d := p.a.Dim(ast.Dim{DimPos: dimTok.Pos, Name: name.Text, Sym: name.Sym, NamePos: name.Pos})
	closeKind := token.RBRACKET
	switch {
	case p.accept(token.LBRACKET):
	case p.accept(token.LPAREN):
		closeKind = token.RPAREN
	default:
		p.errorf("expected '[' after dim %s, found %s", d.Name, p.cur())
		p.syncStmt()
		return d
	}
	d.Sizes = p.parseExprList(closeKind)
	return d
}

func (p *parser) parseAssign() ast.Stmt {
	lhs := p.parsePrimary()
	switch lhs.(type) {
	case *ast.Ident, *ast.ArrayRef:
		// ok
	default:
		p.errorf("invalid assignment target")
	}
	p.expect(token.ASSIGN)
	rhs := p.parseExpr()
	return p.a.Assign(ast.Assign{LHS: lhs, RHS: rhs})
}

// ---------------------------------------------------------------------------
// Expressions

func (p *parser) parseExpr() ast.Expr { return p.parseOr() }

func (p *parser) parseOr() ast.Expr {
	e := p.parseAnd()
	for p.at(token.OR) {
		p.next()
		e = p.a.Binary(ast.Binary{Op: token.OR, L: e, R: p.parseAnd()})
	}
	return e
}

func (p *parser) parseAnd() ast.Expr {
	e := p.parseRel()
	for p.at(token.AND) {
		p.next()
		e = p.a.Binary(ast.Binary{Op: token.AND, L: e, R: p.parseRel()})
	}
	return e
}

func (p *parser) parseRel() ast.Expr {
	e := p.parseAdd()
	if p.cur().Kind.IsRelational() {
		op := p.tok.Kind
		p.next()
		return p.a.Binary(ast.Binary{Op: op, L: e, R: p.parseAdd()})
	}
	// In expression position a bare '=' means equality (Fortran habit).
	if p.at(token.ASSIGN) && p.cur().Text == "=" {
		p.next()
		return p.a.Binary(ast.Binary{Op: token.EQ, L: e, R: p.parseAdd()})
	}
	return e
}

func (p *parser) parseAdd() ast.Expr {
	e := p.parseMul()
	for p.cur().Kind.IsAdditive() {
		op := p.tok.Kind
		p.next()
		e = p.a.Binary(ast.Binary{Op: op, L: e, R: p.parseMul()})
	}
	return e
}

func (p *parser) parseMul() ast.Expr {
	e := p.parseUnary()
	for p.cur().Kind.IsMultiplicative() {
		op := p.tok.Kind
		p.next()
		e = p.a.Binary(ast.Binary{Op: op, L: e, R: p.parseUnary()})
	}
	return e
}

func (p *parser) parseUnary() ast.Expr {
	if p.at(token.MINUS) || p.at(token.NOT) {
		t := p.tok
		p.next()
		return p.a.Unary(ast.Unary{OpPos: t.Pos, Op: t.Kind, X: p.parseUnary()})
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() ast.Expr {
	switch t := p.cur(); t.Kind {
	case token.INT:
		p.next()
		return p.a.IntLit(ast.IntLit{LitPos: t.Pos, Value: t.Val})

	case token.IDENT:
		p.next()
		if p.at(token.LBRACKET) || p.at(token.LPAREN) {
			open := p.tok.Kind
			p.next()
			closeKind := token.RBRACKET
			if open == token.LPAREN {
				closeKind = token.RPAREN
			}
			ref := p.a.ArrayRef(ast.ArrayRef{NamePos: t.Pos, Name: t.Text, Sym: t.Sym})
			ref.Subs = p.parseExprList(closeKind)
			return ref
		}
		return p.a.Ident(ast.Ident{NamePos: t.Pos, Name: t.Text, Sym: t.Sym})

	case token.LPAREN:
		p.next()
		e := p.parseExpr()
		p.expect(token.RPAREN)
		return e

	default:
		p.errorf("expected expression, found %s", t)
		p.next()
		return p.a.IntLit(ast.IntLit{LitPos: t.Pos, Value: 0})
	}
}

// parseExprList parses "expr { , expr }" and the closing token: the
// subscripts of an array reference or the sizes of a dim.
func (p *parser) parseExprList(closeKind token.Kind) []ast.Expr {
	mark := p.a.ExprMark()
	p.a.PushExpr(p.parseExpr())
	for p.accept(token.COMMA) {
		p.a.PushExpr(p.parseExpr())
	}
	p.expect(closeKind)
	return p.a.PopExprs(mark)
}
