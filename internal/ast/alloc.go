package ast

import "unsafe"

// Alloc hands out the nodes and lists of one tree under construction from
// chunked storage, one chunked slice per node type, so a parse or a
// normalization allocates once per chunk instead of once per node. A list
// (statement list, subscript list, dim sizes) is carved at its exact
// length with cap == len: an append by a later pass (an optimizer, the
// fix engine) copies the list instead of writing into its neighbour's
// storage.
//
// A chunk holds at most maxChunkBytes, because one live node keeps its
// whole chunk reachable: the driver's memo keeps each solved loop's graph,
// which points into the normalized tree. Chunks are sized to waste little
// at the end of a pass: Expect sizes them from a census of an input tree
// (normalization's), Extrapolate from the share of its input a pass has
// read (the parser's), and otherwise they double from minChunk nodes.
//
// The zero Alloc is ready to use; a nil *Alloc allocates each expression
// node and expression list on its own (PolyToExpr and CloneExpr serve
// callers without an allocator that way). An Alloc is not safe for
// concurrent use.
type Alloc struct {
	idents  slab[Ident]
	lits    slab[IntLit]
	refs    slab[ArrayRef]
	bins    slab[Binary]
	unaries slab[Unary]
	loops   slab[DoLoop]
	ifs     slab[If]
	assigns slab[Assign]
	dims    slab[Dim]
	stmts   slab[Stmt]
	exprs   slab[Expr]

	// Lists whose length is known only at their end (the parser's) are
	// gathered on these stacks, then copied out at their exact length.
	stmtStack []Stmt
	exprStack []Expr

	progress func() (done, total int) // see Extrapolate
}

const (
	minChunk = 4
	// maxChunkBytes fills the 8 KiB size class exactly: the runtime puts
	// an 8-byte header before each object over 512 bytes that holds
	// pointers, so a chunk of 8 KiB of nodes would take the next class,
	// 9,472 bytes.
	maxChunkBytes = 8<<10 - 8
)

// slab is the chunked storage of one type.
type slab[T any] struct {
	free []T // the unused tail of the current chunk
	want int // elements the census still expects
	past int // elements of the chunks made past the census
}

// take returns n fresh zero elements with cap == len.
func (s *slab[T]) take(n int, progress func() (int, int)) []T {
	if n > len(s.free) {
		s.refill(n, progress)
	}
	l := s.free[:n:n]
	s.free = s.free[n:]
	return l
}

// one returns a pointer to one fresh zero element.
func (s *slab[T]) one(progress func() (int, int)) *T {
	if len(s.free) == 0 {
		s.refill(1, progress)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

// refill starts a chunk of at least n elements, up to maxChunkBytes: what
// the census still expects, or else what extrapolating from progress
// predicts, or else the next doubling, but at least minChunk. A list
// longer than a chunk gets a chunk of its own.
func (s *slab[T]) refill(n int, progress func() (int, int)) {
	size := s.want
	if size <= 0 {
		size = s.past
		if progress != nil {
			if done, total := progress(); done > 0 {
				size = s.past * (total - done) / done
			}
		}
		size = max(size, minChunk)
	}
	var node T
	s.free = make([]T, max(min(size, maxChunkBytes/int(unsafe.Sizeof(node))), n))
	if s.want > 0 {
		s.want = max(s.want-len(s.free), 0)
	} else {
		s.past += len(s.free)
	}
}

// Extrapolate sizes the chunks past the census from progress, which
// reports how much of its input the pass building the tree has read: a
// node type of which that share took k nodes is expected to take
// k·(total−done)/done more. The parser reports its lexer's byte offset.
func (a *Alloc) Extrapolate(progress func() (done, total int)) { a.progress = progress }

// Expect sizes the chunks still to come from a census of body: a tree
// built from body (a copy, a rewrite) asks for about as many nodes of
// each type, and for exactly as many list elements when it keeps every
// statement and subscript. The census walk allocates nothing.
func (a *Alloc) Expect(body []Stmt) {
	a.stmts.want += len(body)
	for _, s := range body {
		a.expectStmt(s)
	}
}

func (a *Alloc) expectStmt(s Stmt) {
	switch st := s.(type) {
	case *DoLoop:
		a.loops.want++
		a.expectExpr(st.Lo)
		a.expectExpr(st.Hi)
		a.expectExpr(st.Step)
		a.Expect(st.Body)
	case *If:
		a.ifs.want++
		a.expectExpr(st.Cond)
		a.Expect(st.Then)
		a.Expect(st.Else)
	case *Assign:
		a.assigns.want++
		a.expectExpr(st.LHS)
		a.expectExpr(st.RHS)
	case *Dim:
		a.dims.want++
		a.exprs.want += len(st.Sizes)
		for _, sz := range st.Sizes {
			a.expectExpr(sz)
		}
	}
}

func (a *Alloc) expectExpr(e Expr) {
	switch ex := e.(type) {
	case *Ident:
		a.idents.want++
	case *IntLit:
		a.lits.want++
	case *ArrayRef:
		a.refs.want++
		a.exprs.want += len(ex.Subs)
		for _, sub := range ex.Subs {
			a.expectExpr(sub)
		}
	case *Binary:
		a.bins.want++
		a.expectExpr(ex.L)
		a.expectExpr(ex.R)
	case *Unary:
		a.unaries.want++
		a.expectExpr(ex.X)
	}
}

// Ident returns a node holding v.
func (a *Alloc) Ident(v Ident) *Ident {
	if a == nil {
		p := new(Ident)
		*p = v
		return p
	}
	p := a.idents.one(a.progress)
	*p = v
	return p
}

// IntLit returns a node holding v.
func (a *Alloc) IntLit(v IntLit) *IntLit {
	if a == nil {
		p := new(IntLit)
		*p = v
		return p
	}
	p := a.lits.one(a.progress)
	*p = v
	return p
}

// ArrayRef returns a node holding v.
func (a *Alloc) ArrayRef(v ArrayRef) *ArrayRef {
	if a == nil {
		p := new(ArrayRef)
		*p = v
		return p
	}
	p := a.refs.one(a.progress)
	*p = v
	return p
}

// Binary returns a node holding v.
func (a *Alloc) Binary(v Binary) *Binary {
	if a == nil {
		p := new(Binary)
		*p = v
		return p
	}
	p := a.bins.one(a.progress)
	*p = v
	return p
}

// Unary returns a node holding v.
func (a *Alloc) Unary(v Unary) *Unary {
	if a == nil {
		p := new(Unary)
		*p = v
		return p
	}
	p := a.unaries.one(a.progress)
	*p = v
	return p
}

// DoLoop returns a node holding v.
func (a *Alloc) DoLoop(v DoLoop) *DoLoop {
	p := a.loops.one(a.progress)
	*p = v
	return p
}

// If returns a node holding v.
func (a *Alloc) If(v If) *If {
	p := a.ifs.one(a.progress)
	*p = v
	return p
}

// Assign returns a node holding v.
func (a *Alloc) Assign(v Assign) *Assign {
	p := a.assigns.one(a.progress)
	*p = v
	return p
}

// Dim returns a node holding v.
func (a *Alloc) Dim(v Dim) *Dim {
	p := a.dims.one(a.progress)
	*p = v
	return p
}

// CloneExpr returns a deep copy of e built from a.
func (a *Alloc) CloneExpr(e Expr) Expr {
	switch ex := e.(type) {
	case nil:
		return nil
	case *Ident:
		return a.Ident(*ex)
	case *IntLit:
		return a.IntLit(*ex)
	case *ArrayRef:
		c := a.ArrayRef(ArrayRef{NamePos: ex.NamePos, Name: ex.Name, Sym: ex.Sym, Subs: a.Exprs(len(ex.Subs))})
		for i, s := range ex.Subs {
			c.Subs[i] = a.CloneExpr(s)
		}
		return c
	case *Binary:
		return a.Binary(Binary{Op: ex.Op, L: a.CloneExpr(ex.L), R: a.CloneExpr(ex.R)})
	case *Unary:
		return a.Unary(Unary{OpPos: ex.OpPos, Op: ex.Op, X: a.CloneExpr(ex.X)})
	}
	panic("ast: unknown expression type in CloneExpr")
}

// Stmts returns a statement list of length n (non-nil, cap == len) for
// the caller to fill.
func (a *Alloc) Stmts(n int) []Stmt {
	if n == 0 {
		return []Stmt{}
	}
	return a.stmts.take(n, a.progress)
}

// Exprs returns an expression list of length n (non-nil, cap == len) for
// the caller to fill.
func (a *Alloc) Exprs(n int) []Expr {
	if a == nil || n == 0 {
		return make([]Expr, n)
	}
	return a.exprs.take(n, a.progress)
}

// StmtMark opens a statement list of unknown length: push its statements
// with PushStmt (lists nested inside may open and close meanwhile), then
// close it with PopStmts.
func (a *Alloc) StmtMark() int { return len(a.stmtStack) }

// PushStmt appends s to the innermost open statement list.
func (a *Alloc) PushStmt(s Stmt) { a.stmtStack = append(a.stmtStack, s) }

// PopStmts closes the statement list opened at mark and returns its
// statements at their exact length, or nil when it has none.
func (a *Alloc) PopStmts(mark int) []Stmt {
	if len(a.stmtStack) == mark {
		return nil
	}
	l := a.stmts.take(len(a.stmtStack)-mark, a.progress)
	copy(l, a.stmtStack[mark:])
	a.stmtStack = a.stmtStack[:mark]
	return l
}

// ExprMark opens an expression list of unknown length; see StmtMark.
func (a *Alloc) ExprMark() int { return len(a.exprStack) }

// PushExpr appends e to the innermost open expression list.
func (a *Alloc) PushExpr(e Expr) { a.exprStack = append(a.exprStack, e) }

// PopExprs closes the expression list opened at mark and returns its
// expressions at their exact length, or nil when it has none.
func (a *Alloc) PopExprs(mark int) []Expr {
	if len(a.exprStack) == mark {
		return nil
	}
	l := a.exprs.take(len(a.exprStack)-mark, a.progress)
	copy(l, a.exprStack[mark:])
	a.exprStack = a.exprStack[:mark]
	return l
}
