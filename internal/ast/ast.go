// Package ast defines the abstract syntax tree of the loop mini-language.
//
// Programs are lists of statements; the statements relevant to the PLDI'93
// framework are DO loops (single basic induction variable, normalized by
// internal/sema), IF conditionals, and assignments. Array references carry
// one or more subscript expressions; internal/sema later checks that each is
// an affine function of a loop induction variable.
package ast

import "repro/internal/token"

// Node is implemented by all AST nodes.
type Node interface {
	Pos() token.Pos
}

// Stmt is implemented by statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Expr is implemented by expression nodes.
type Expr interface {
	Node
	exprNode()
}

// Program is a whole translation unit: a statement list. Syms, when
// non-nil, is the identifier intern table populated by the parser; symbol
// IDs on nodes index into it. Hand-built programs may leave it nil.
type Program struct {
	Body []Stmt
	Syms *token.Interner
	// Directives are the lint control comments the lexer collected
	// (suppressions such as //lint:ignore), in source order. They ride on
	// the program because comments have no home in the statement tree;
	// sema.Normalize preserves them across normalization.
	Directives []token.Directive
}

// Pos returns the position of the first statement, if any.
func (p *Program) Pos() token.Pos {
	if len(p.Body) > 0 {
		return p.Body[0].Pos()
	}
	return token.Pos{}
}

// ---------------------------------------------------------------------------
// Statements

// DoLoop is a counted loop: do Var = Lo, Hi [, Step] ... enddo.
type DoLoop struct {
	DoPos  token.Pos
	Var    string
	VarSym token.Sym // intern symbol for Var (0 on hand-built nodes)
	Lo     Expr
	Hi     Expr
	Step   Expr // nil means step 1
	Body   []Stmt

	// Label is a stable identity assigned by the parser (source order of DO
	// headers), used to key analysis results across transformations.
	Label int
}

func (s *DoLoop) Pos() token.Pos { return s.DoPos }
func (*DoLoop) stmtNode()        {}

// If is a conditional: if Cond then ... [else ...] endif.
type If struct {
	IfPos token.Pos
	Cond  Expr
	Then  []Stmt
	Else  []Stmt // nil when absent
}

func (s *If) Pos() token.Pos { return s.IfPos }
func (*If) stmtNode()        {}

// Assign is an assignment to a scalar or array element.
type Assign struct {
	LHS Expr // *Ident (scalar) or *ArrayRef
	RHS Expr
}

func (s *Assign) Pos() token.Pos { return s.LHS.Pos() }
func (*Assign) stmtNode()        {}

// Dim declares an array's dimension sizes: dim A[100, 200]. Sizes must be
// positive integer constants (validated by internal/sema); the declaration
// gives diagnostics a bound to check subscript extremes against. Arrays are
// 1-based, so dim A[n] declares the valid index range [1, n].
type Dim struct {
	DimPos  token.Pos
	Name    string
	Sym     token.Sym // intern symbol for Name (0 on hand-built nodes)
	NamePos token.Pos
	Sizes   []Expr
}

func (s *Dim) Pos() token.Pos { return s.DimPos }
func (*Dim) stmtNode()        {}

// ---------------------------------------------------------------------------
// Expressions

// Ident is a scalar variable reference (or the loop induction variable).
type Ident struct {
	NamePos token.Pos
	Name    string
	Sym     token.Sym // intern symbol for Name (0 on hand-built nodes)
}

func (e *Ident) Pos() token.Pos { return e.NamePos }
func (*Ident) exprNode()        {}

// IntLit is an integer literal.
type IntLit struct {
	LitPos token.Pos
	Value  int64
}

func (e *IntLit) Pos() token.Pos { return e.LitPos }
func (*IntLit) exprNode()        {}

// ArrayRef is a subscripted reference X[e1, …, en] (or X(e1, …, en)).
type ArrayRef struct {
	NamePos token.Pos
	Name    string
	Sym     token.Sym // intern symbol for Name (0 on hand-built nodes)
	Subs    []Expr
}

func (e *ArrayRef) Pos() token.Pos { return e.NamePos }
func (*ArrayRef) exprNode()        {}

// Binary is a binary operation; Op is an operator token kind.
type Binary struct {
	Op token.Kind
	L  Expr
	R  Expr
}

func (e *Binary) Pos() token.Pos { return e.L.Pos() }
func (*Binary) exprNode()        {}

// Unary is a unary operation (MINUS or NOT).
type Unary struct {
	OpPos token.Pos
	Op    token.Kind
	X     Expr
}

func (e *Unary) Pos() token.Pos { return e.OpPos }
func (*Unary) exprNode()        {}

// ---------------------------------------------------------------------------
// Traversal and utilities

// Inspect walks the statement list depth-first, calling f for every node.
// If f returns false for a node, its children are skipped.
func Inspect(stmts []Stmt, f func(Node) bool) {
	for _, s := range stmts {
		inspectStmt(s, f)
	}
}

func inspectStmt(s Stmt, f func(Node) bool) {
	if s == nil || !f(s) {
		return
	}
	switch st := s.(type) {
	case *DoLoop:
		inspectExpr(st.Lo, f)
		inspectExpr(st.Hi, f)
		if st.Step != nil {
			inspectExpr(st.Step, f)
		}
		Inspect(st.Body, f)
	case *If:
		inspectExpr(st.Cond, f)
		Inspect(st.Then, f)
		Inspect(st.Else, f)
	case *Assign:
		inspectExpr(st.LHS, f)
		inspectExpr(st.RHS, f)
	case *Dim:
		for _, sz := range st.Sizes {
			inspectExpr(sz, f)
		}
	}
}

// InspectExpr walks a single expression depth-first, calling f for every
// node. If f returns false for a node, its children are skipped. It is the
// allocation-free counterpart of wrapping e in a synthetic statement and
// calling Inspect.
func InspectExpr(e Expr, f func(Node) bool) { inspectExpr(e, f) }

func inspectExpr(e Expr, f func(Node) bool) {
	if e == nil || !f(e) {
		return
	}
	switch ex := e.(type) {
	case *ArrayRef:
		for _, sub := range ex.Subs {
			inspectExpr(sub, f)
		}
	case *Binary:
		inspectExpr(ex.L, f)
		inspectExpr(ex.R, f)
	case *Unary:
		inspectExpr(ex.X, f)
	}
}

// CloneExpr returns a deep copy of an expression, each node allocated on
// its own.
func CloneExpr(e Expr) Expr { return (*Alloc)(nil).CloneExpr(e) }

// CloneStmt returns a deep copy of a statement.
func CloneStmt(s Stmt) Stmt {
	switch st := s.(type) {
	case nil:
		return nil
	case *DoLoop:
		c := &DoLoop{
			DoPos: st.DoPos, Var: st.Var, VarSym: st.VarSym, Label: st.Label,
			Lo: CloneExpr(st.Lo), Hi: CloneExpr(st.Hi),
		}
		if st.Step != nil {
			c.Step = CloneExpr(st.Step)
		}
		c.Body = CloneStmts(st.Body)
		return c
	case *If:
		return &If{IfPos: st.IfPos, Cond: CloneExpr(st.Cond), Then: CloneStmts(st.Then), Else: CloneStmts(st.Else)}
	case *Assign:
		return &Assign{LHS: CloneExpr(st.LHS), RHS: CloneExpr(st.RHS)}
	case *Dim:
		c := &Dim{DimPos: st.DimPos, Name: st.Name, Sym: st.Sym, NamePos: st.NamePos, Sizes: make([]Expr, len(st.Sizes))}
		for i, sz := range st.Sizes {
			c.Sizes[i] = CloneExpr(sz)
		}
		return c
	}
	panic("ast: unknown statement type in CloneStmt")
}

// CloneStmts deep-copies a statement list (nil stays nil).
func CloneStmts(list []Stmt) []Stmt {
	if list == nil {
		return nil
	}
	out := make([]Stmt, len(list))
	for i, s := range list {
		out[i] = CloneStmt(s)
	}
	return out
}

// SubstituteIdent returns a copy of e with every occurrence of the scalar
// identifier name replaced by repl (deep-copied at each site).
func SubstituteIdent(e Expr, name string, repl Expr) Expr {
	switch ex := e.(type) {
	case nil:
		return nil
	case *Ident:
		if ex.Name == name {
			return CloneExpr(repl)
		}
		return CloneExpr(ex)
	case *IntLit:
		return CloneExpr(ex)
	case *ArrayRef:
		c := &ArrayRef{NamePos: ex.NamePos, Name: ex.Name, Sym: ex.Sym, Subs: make([]Expr, len(ex.Subs))}
		for i, s := range ex.Subs {
			c.Subs[i] = SubstituteIdent(s, name, repl)
		}
		return c
	case *Binary:
		return &Binary{Op: ex.Op, L: SubstituteIdent(ex.L, name, repl), R: SubstituteIdent(ex.R, name, repl)}
	case *Unary:
		return &Unary{OpPos: ex.OpPos, Op: ex.Op, X: SubstituteIdent(ex.X, name, repl)}
	}
	panic("ast: unknown expression type in SubstituteIdent")
}

// SubstituteIdentStmts applies SubstituteIdent across a statement list,
// returning a deep copy. Assignments to the substituted name are left intact
// (the caller is responsible for not substituting assigned variables).
func SubstituteIdentStmts(list []Stmt, name string, repl Expr) []Stmt {
	out := make([]Stmt, len(list))
	for i, s := range list {
		switch st := s.(type) {
		case *DoLoop:
			c := &DoLoop{DoPos: st.DoPos, Var: st.Var, VarSym: st.VarSym, Label: st.Label}
			c.Lo = SubstituteIdent(st.Lo, name, repl)
			c.Hi = SubstituteIdent(st.Hi, name, repl)
			if st.Step != nil {
				c.Step = SubstituteIdent(st.Step, name, repl)
			}
			if st.Var == name {
				// Inner loop shadows the name; leave its body alone.
				c.Body = CloneStmts(st.Body)
			} else {
				c.Body = SubstituteIdentStmts(st.Body, name, repl)
			}
			out[i] = c
		case *If:
			out[i] = &If{
				IfPos: st.IfPos,
				Cond:  SubstituteIdent(st.Cond, name, repl),
				Then:  SubstituteIdentStmts(st.Then, name, repl),
				Else:  substituteMaybe(st.Else, name, repl),
			}
		case *Assign:
			out[i] = &Assign{LHS: SubstituteIdent(st.LHS, name, repl), RHS: SubstituteIdent(st.RHS, name, repl)}
		default:
			out[i] = CloneStmt(s)
		}
	}
	return out
}

func substituteMaybe(list []Stmt, name string, repl Expr) []Stmt {
	if list == nil {
		return nil
	}
	return SubstituteIdentStmts(list, name, repl)
}
