package sema

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/poly"
	"repro/internal/token"
)

// Normalize returns a copy of the program in which every DO loop runs from 1
// to an upper bound with step one, as the framework requires (paper §1:
// "all loops are normalized, i.e., the induction variable ranges from 1 to
// an upper bound UB with increment one").
//
// A loop  do i = lo, hi, s  (s a nonzero integer constant, s defaults to 1)
// becomes  do i = 1, (hi−lo+s)/s  with every use of i in the body replaced
// by  lo + (i−1)·s. Integer division truncates toward zero, so the new
// upper bound is the trip count whenever the loop runs, and at most 0
// when it does not. Loops already in normal form are returned unchanged
// (structurally copied). A loop whose step is not a nonzero integer constant
// is an error. Every polynomial array subscript of the copy is in canonical
// form (see CanonicalizeSubscripts), so the substitution residue
// "1 + (i-1)*3 + 2" reads "3 * i".
//
// The copy is built in one walk that carries the replacements of the
// enclosing loops' variables, and shares no node and no list with prog.
// Its nodes come from chunks sized by a census of prog (see ast.Alloc),
// and every list has cap == len. The intern table and lint directives
// carry over: normalization rewrites statements, not identities or
// comments.
//
// A name in a loop's lower bound means what it means at the loop header,
// even when an inner loop reuses an enclosing induction variable's name (a
// nest Check rejects). The one name the rewrite cannot keep apart is the
// loop's own variable: in  do j = j, N  the lower bound reads j before the
// loop assigns it, while the substituted body can only read the normalized
// j. Normalize refuses such a loop with a positioned error, as Check does.
func Normalize(prog *ast.Program) (*ast.Program, error) {
	w := rewriter{normalize: true}
	w.a.Expect(prog.Body)
	body, err := w.block(prog.Body)
	if err != nil {
		return nil, err
	}
	return &ast.Program{Body: body, Syms: prog.Syms, Directives: prog.Directives}, nil
}

// binding is one entry of the rewrite's environment: a loop variable and
// what replaces it in the loop's body. A nil repl marks a normal-form loop
// whose variable shadows an outer binding of the same name.
type binding struct {
	name  string
	repl  ast.Expr  // with the enclosing bindings applied; subscripts as written
	canon ast.Expr  // repl with its subscripts canonicalized
	p     poly.Poly // repl as a polynomial, when err is nil
	err   error
}

// rewriter copies statements, replacing bound loop variables and writing
// every polynomial subscript in canonical form. With normalize set it also
// normalizes each loop and binds its variable for the body. The copy's
// nodes come from a; syms holds one single-symbol polynomial per name the
// subscripts read, shared by every read (polynomials are immutable).
type rewriter struct {
	normalize bool
	env       []binding // innermost last
	a         ast.Alloc
	syms      symPolys
}

// lookup returns the binding that replaces name, or nil when name is
// unbound or shadowed.
func lookup(env []binding, name string) *binding {
	for k := len(env) - 1; k >= 0; k-- {
		if env[k].name == name {
			if env[k].repl == nil {
				return nil
			}
			return &env[k]
		}
	}
	return nil
}

// block copies a statement list. Normalization always yields a non-nil
// list; canonicalization keeps nil as nil.
func (w *rewriter) block(list []ast.Stmt) ([]ast.Stmt, error) {
	if list == nil && !w.normalize {
		return nil, nil
	}
	out := w.a.Stmts(len(list))
	for i, s := range list {
		st, err := w.stmt(s)
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

func (w *rewriter) stmt(s ast.Stmt) (ast.Stmt, error) {
	switch st := s.(type) {
	case nil:
		return nil, nil
	case *ast.DoLoop:
		if w.normalize {
			return w.loop(st)
		}
		c := w.a.DoLoop(ast.DoLoop{
			DoPos: st.DoPos, Var: st.Var, VarSym: st.VarSym, Label: st.Label,
			Lo: w.expr(st.Lo), Hi: w.expr(st.Hi), Step: w.expr(st.Step),
		})
		c.Body, _ = w.block(st.Body)
		return c, nil
	case *ast.If:
		c := w.a.If(ast.If{IfPos: st.IfPos, Cond: w.expr(st.Cond)})
		var err error
		if c.Then, err = w.block(st.Then); err != nil {
			return nil, err
		}
		if st.Else != nil {
			if c.Else, err = w.block(st.Else); err != nil {
				return nil, err
			}
		}
		return c, nil
	case *ast.Assign:
		return w.a.Assign(ast.Assign{LHS: w.expr(st.LHS), RHS: w.expr(st.RHS)}), nil
	case *ast.Dim:
		// A declaration's sizes are canonicalized but never substituted.
		c := w.a.Dim(ast.Dim{DimPos: st.DimPos, Name: st.Name, Sym: st.Sym, NamePos: st.NamePos, Sizes: w.a.Exprs(len(st.Sizes))})
		for i, sz := range st.Sizes {
			c.Sizes[i] = w.canonical(sz)
		}
		return c, nil
	}
	panic("sema: unknown statement type in rewrite")
}

// loop normalizes one loop and rewrites its body under the loop's binding.
// A normalized loop has no step and no VarSym.
func (w *rewriter) loop(st *ast.DoLoop) (*ast.DoLoop, error) {
	step := int64(1)
	if st.Step != nil {
		v, ok := constValue(st.Step)
		if !ok || v == 0 {
			return nil, &Error{Pos: st.Pos(), Msg: fmt.Sprintf(
				"loop step %q must be a nonzero integer constant", ast.ExprString(st.Step))}
		}
		step = v
	}
	if err := selfReadError(st); err != nil {
		return nil, err
	}
	out := w.a.DoLoop(ast.DoLoop{DoPos: st.DoPos, Var: st.Var, Label: st.Label})
	mark := len(w.env)
	if v, ok := constValue(st.Lo); ok && v == 1 && step == 1 {
		out.Lo, out.Hi = w.expr(st.Lo), w.expr(st.Hi)
		if lookup(w.env, st.Var) != nil {
			w.env = append(w.env, binding{name: st.Var})
		}
	} else {
		// UB = (hi − lo + step)/step, folded from the loop's own bounds
		// before the enclosing replacements apply.
		out.Lo = w.a.IntLit(ast.IntLit{Value: 1})
		out.Hi = w.expr(simplify(div(add(sub(st.Hi, st.Lo), lit(step)), lit(step))))
		w.bind(st.Var, st.Lo, step)
	}
	body, err := w.block(st.Body)
	w.env = w.env[:mark]
	if err != nil {
		return nil, err
	}
	out.Body = body
	return out, nil
}

// selfReadError reports a lower bound that reads the loop's own induction
// variable (nil when it does not). Such a bound is the variable's value
// before the loop, which no normalized body can name.
func selfReadError(st *ast.DoLoop) error {
	var at *ast.Ident
	ast.InspectExpr(st.Lo, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && at == nil && id.Name == st.Var {
			at = id
		}
		return at == nil
	})
	if at == nil {
		return nil
	}
	return &Error{Pos: at.Pos(), Msg: "loop lower bound reads its own induction variable " + st.Var}
}

// bind pushes i ↦ lo + (i−1)·step, folded as simplify folds it: the lower
// bound drops out when it is zero and the factor when the step is one. The
// enclosing replacements apply to lo only; the i in (i−1) is the
// normalized variable itself.
func (w *rewriter) bind(name string, lo ast.Expr, step int64) {
	var repl ast.Expr = sub(&ast.Ident{Name: name}, lit(1))
	if step != 1 {
		repl = mul(repl, lit(step))
	}
	lo = simplify(lo)
	if v, ok := constValue(lo); !ok || v != 0 {
		repl = add(w.subst(lo), repl)
	}
	b := binding{name: name, repl: repl, canon: w.canonical(repl)}
	b.p, b.err = polyIn(repl, nil, &w.syms)
	w.env = append(w.env, b)
}

// canonical copies e with its subscripts canonicalized and no
// replacement applied.
func (w *rewriter) canonical(e ast.Expr) ast.Expr {
	env := w.env
	w.env = nil
	c := w.expr(e)
	w.env = env
	return c
}

// expr copies e with bound variables replaced and every polynomial array
// subscript in canonical form. A subscript that is not a polynomial is
// copied with the replacements applied and nothing inside it canonicalized.
func (w *rewriter) expr(e ast.Expr) ast.Expr {
	switch ex := e.(type) {
	case nil:
		return nil
	case *ast.Ident:
		if b := lookup(w.env, ex.Name); b != nil {
			return w.a.CloneExpr(b.canon)
		}
		return w.a.Ident(*ex)
	case *ast.IntLit:
		return w.a.IntLit(*ex)
	case *ast.ArrayRef:
		c := w.a.ArrayRef(ast.ArrayRef{NamePos: ex.NamePos, Name: ex.Name, Sym: ex.Sym, Subs: w.a.Exprs(len(ex.Subs))})
		for k, s := range ex.Subs {
			if p, err := polyIn(s, w.env, &w.syms); err == nil {
				if canon, ok := polyToExpr(&w.a, p); ok {
					c.Subs[k] = canon
					continue
				}
			}
			c.Subs[k] = w.subst(s)
		}
		return c
	case *ast.Binary:
		return w.a.Binary(ast.Binary{Op: ex.Op, L: w.expr(ex.L), R: w.expr(ex.R)})
	case *ast.Unary:
		return w.a.Unary(ast.Unary{OpPos: ex.OpPos, Op: ex.Op, X: w.expr(ex.X)})
	}
	panic("sema: unknown expression type in rewrite")
}

// subst copies e with bound variables replaced and nothing canonicalized.
func (w *rewriter) subst(e ast.Expr) ast.Expr {
	switch ex := e.(type) {
	case *ast.Ident:
		if b := lookup(w.env, ex.Name); b != nil {
			return w.a.CloneExpr(b.repl)
		}
	case *ast.ArrayRef:
		c := w.a.ArrayRef(ast.ArrayRef{NamePos: ex.NamePos, Name: ex.Name, Sym: ex.Sym, Subs: w.a.Exprs(len(ex.Subs))})
		for k, s := range ex.Subs {
			c.Subs[k] = w.subst(s)
		}
		return c
	case *ast.Binary:
		return w.a.Binary(ast.Binary{Op: ex.Op, L: w.subst(ex.L), R: w.subst(ex.R)})
	case *ast.Unary:
		return w.a.Unary(ast.Unary{OpPos: ex.OpPos, Op: ex.Op, X: w.subst(ex.X)})
	}
	return w.a.CloneExpr(e)
}

// constValue evaluates a constant integer expression.
func constValue(e ast.Expr) (int64, bool) {
	switch ex := e.(type) {
	case *ast.IntLit:
		return ex.Value, true
	case *ast.Unary:
		if ex.Op == token.MINUS {
			if v, ok := constValue(ex.X); ok {
				return -v, true
			}
		}
	case *ast.Binary:
		l, okL := constValue(ex.L)
		r, okR := constValue(ex.R)
		if !okL || !okR {
			return 0, false
		}
		switch ex.Op {
		case token.PLUS:
			return l + r, true
		case token.MINUS:
			return l - r, true
		case token.STAR:
			return l * r, true
		case token.SLASH:
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case token.MOD:
			if r == 0 {
				return 0, false
			}
			return l % r, true
		}
	}
	return 0, false
}

// --- tiny AST-building helpers with constant folding ---------------------

func lit(v int64) ast.Expr { return &ast.IntLit{Value: v} }

func add(l, r ast.Expr) ast.Expr { return &ast.Binary{Op: token.PLUS, L: l, R: r} }
func sub(l, r ast.Expr) ast.Expr { return &ast.Binary{Op: token.MINUS, L: l, R: r} }
func mul(l, r ast.Expr) ast.Expr { return &ast.Binary{Op: token.STAR, L: l, R: r} }
func div(l, r ast.Expr) ast.Expr { return &ast.Binary{Op: token.SLASH, L: l, R: r} }

// simplify performs local constant folding and algebraic identity cleanup
// (x+0, x−0, x·1, x·0, x/1, 0+x, 1·x).
func simplify(e ast.Expr) ast.Expr {
	b, ok := e.(*ast.Binary)
	if !ok {
		if u, isU := e.(*ast.Unary); isU {
			x := simplify(u.X)
			if v, isC := constValue(x); isC && u.Op == token.MINUS {
				return lit(-v)
			}
			return &ast.Unary{OpPos: u.OpPos, Op: u.Op, X: x}
		}
		return e
	}
	l := simplify(b.L)
	r := simplify(b.R)
	if v, ok := constValue(&ast.Binary{Op: b.Op, L: l, R: r}); ok {
		return lit(v)
	}
	lv, lc := constValue(l)
	rv, rc := constValue(r)
	switch b.Op {
	case token.PLUS:
		if lc && lv == 0 {
			return r
		}
		if rc && rv == 0 {
			return l
		}
	case token.MINUS:
		if rc && rv == 0 {
			return l
		}
	case token.STAR:
		if lc && lv == 1 {
			return r
		}
		if rc && rv == 1 {
			return l
		}
		if (lc && lv == 0) || (rc && rv == 0) {
			return lit(0)
		}
	case token.SLASH:
		if rc && rv == 1 {
			return l
		}
	}
	return &ast.Binary{Op: b.Op, L: l, R: r}
}

// Simplify exposes the local constant folder for other packages (the
// optimizers use it when synthesizing peeled iterations).
func Simplify(e ast.Expr) ast.Expr { return simplify(e) }

// ConstValue exposes constant evaluation of expressions.
func ConstValue(e ast.Expr) (int64, bool) { return constValue(e) }
