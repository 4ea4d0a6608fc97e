package opt

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/problems"
	"repro/internal/sema"
)

// LoadElimResult reports a redundant-load elimination (scalar replacement).
type LoadElimResult struct {
	Prog *ast.Program
	// Replaced lists the reuse points whose loads were removed.
	Replaced []problems.Reuse
	// Temps is the number of scalar temporaries introduced.
	Temps int
}

// EliminateLoads performs the §4.2.2 transformation on the loop at
// prog.Body[idx]: every use that provably re-reads a δ-available value is
// replaced by a scalar temporary; the temporaries shift at the end of each
// iteration (a source-level register pipeline) and are initialized before
// the loop from X[f(1−k)] exactly as §4.1.4 prescribes.
func EliminateLoads(prog *ast.Program, idx int) (*LoadElimResult, error) {
	loop, ok := prog.Body[idx].(*ast.DoLoop)
	if !ok {
		return nil, fmt.Errorf("opt: statement %d is not a loop", idx)
	}
	g := ir.Build(loop, nil)
	res := problems.Solve(g, problems.AvailableValues())
	reuses := problems.FindReuses(res)
	if len(reuses) == 0 {
		return &LoadElimResult{Prog: prog}, nil
	}

	// Group reuses by class; only 1-D classes with materializable forms.
	type pipe struct {
		class  *dataflow.Class
		delta0 int64
		reuses []problems.Reuse
		temps  []string
	}
	byClass := map[*dataflow.Class]*pipe{}
	var pipes []*pipe
	for _, r := range reuses {
		c := r.From
		if len(c.Members[0].Expr.Subs) != 1 {
			continue
		}
		if _, ok := sema.PolyToExpr(c.Form.A); !ok {
			continue
		}
		if _, ok := sema.PolyToExpr(c.Form.B); !ok {
			continue
		}
		p := byClass[c]
		if p == nil {
			p = &pipe{class: c}
			byClass[c] = p
			pipes = append(pipes, p)
		}
		p.reuses = append(p.reuses, r)
		if r.Distance > p.delta0 {
			p.delta0 = r.Distance
		}
	}
	if len(pipes) == 0 {
		return &LoadElimResult{Prog: prog}, nil
	}

	out := &LoadElimResult{}
	// Temp naming: tmp.<array>.<classIndex>.<stage>.
	useRepl := map[*ast.ArrayRef]string{} // reuse point → temp name
	genDef := map[*ast.Assign]string{}    // def gen site → stage-0 temp
	genUse := map[*ast.ArrayRef]string{}  // use gen site → stage-0 temp
	for _, p := range pipes {
		p.temps = make([]string, p.delta0+1)
		for k := range p.temps {
			p.temps[k] = fmt.Sprintf("tmp.%s.%d.%d", p.class.Array, p.class.Index, k)
		}
		for _, r := range p.reuses {
			useRepl[r.At.Expr] = p.temps[r.Distance]
			out.Replaced = append(out.Replaced, r)
		}
		for _, mem := range p.class.Members {
			if mem.Kind == ir.Def && mem.Node.Assign != nil {
				genDef[mem.Node.Assign] = p.temps[0]
			} else if mem.Kind == ir.Use {
				genUse[mem.Expr] = p.temps[0]
			}
		}
		out.Temps += len(p.temps)
	}

	rw := &loadRewriter{useRepl: useRepl, genDef: genDef, genUse: genUse}
	newBody := rw.block(loop.Body)

	// End-of-iteration shifts tmp_k := tmp_{k−1}, deepest stage first.
	for _, p := range pipes {
		for k := int(p.delta0); k >= 1; k-- {
			newBody = append(newBody, &ast.Assign{
				LHS: &ast.Ident{Name: p.temps[k]},
				RHS: &ast.Ident{Name: p.temps[k-1]},
			})
		}
	}

	newLoop := &ast.DoLoop{
		DoPos: loop.DoPos, Var: loop.Var, Label: loop.Label,
		Lo: ast.CloneExpr(loop.Lo), Hi: ast.CloneExpr(loop.Hi), Body: newBody,
	}

	// Preheader initialization: tmp_k := X[f(1−k)], k = 1..δ0.
	var pre []ast.Stmt
	for _, p := range pipes {
		for k := int64(1); k <= p.delta0; k++ {
			at := &ast.IntLit{Value: 1 - k}
			idxExpr, ok := sema.AffineAtExpr(p.class.Form, at)
			if !ok {
				return nil, fmt.Errorf("opt: cannot materialize init index for %s", p.class)
			}
			pre = append(pre, &ast.Assign{
				LHS: &ast.Ident{Name: p.temps[k]},
				RHS: &ast.ArrayRef{Name: p.class.Array, Subs: []ast.Expr{idxExpr}},
			})
		}
	}

	outProg := &ast.Program{}
	for j, s := range prog.Body {
		if j == idx {
			outProg.Body = append(outProg.Body, pre...)
			outProg.Body = append(outProg.Body, newLoop)
		} else {
			outProg.Body = append(outProg.Body, ast.CloneStmt(s))
		}
	}
	out.Prog = outProg
	return out, nil
}

// loadRewriter rebuilds the loop body applying the three rewrites:
// reuse-point uses become temp reads; generating defs capture their value
// in the stage-0 temp; generating uses hoist their (single) load into the
// stage-0 temp.
type loadRewriter struct {
	useRepl map[*ast.ArrayRef]string
	genDef  map[*ast.Assign]string
	genUse  map[*ast.ArrayRef]string
}

func (rw *loadRewriter) block(body []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	for _, s := range body {
		switch st := s.(type) {
		case *ast.Assign:
			// Hoist generating-use loads of this statement first.
			out = append(out, rw.hoists(st.RHS)...)
			if lhsRef, ok := st.LHS.(*ast.ArrayRef); ok {
				out = append(out, rw.hoistsSubs(lhsRef)...)
			}
			rhs := rw.expr(st.RHS)
			if tmp, ok := rw.genDef[st]; ok {
				// X[f(i)] := rhs  ⇒  tmp0 := rhs; X[f(i)] := tmp0.
				out = append(out, &ast.Assign{LHS: &ast.Ident{Name: tmp}, RHS: rhs})
				lhs := rw.exprRefSubs(st.LHS)
				out = append(out, &ast.Assign{LHS: lhs, RHS: &ast.Ident{Name: tmp}})
			} else {
				out = append(out, &ast.Assign{LHS: rw.exprRefSubs(st.LHS), RHS: rhs})
			}
		case *ast.If:
			out = append(out, rw.hoists(st.Cond)...)
			nf := &ast.If{IfPos: st.IfPos, Cond: rw.expr(st.Cond), Then: rw.block(st.Then)}
			if st.Else != nil {
				nf.Else = rw.block(st.Else)
			}
			out = append(out, nf)
		case *ast.DoLoop:
			cl := &ast.DoLoop{DoPos: st.DoPos, Var: st.Var, Label: st.Label,
				Lo: ast.CloneExpr(st.Lo), Hi: ast.CloneExpr(st.Hi), Body: rw.block(st.Body)}
			if st.Step != nil {
				cl.Step = ast.CloneExpr(st.Step)
			}
			out = append(out, cl)
		default:
			out = append(out, ast.CloneStmt(s))
		}
	}
	return out
}

// hoists returns `tmp0 := X[f(i)]` statements for every generating use
// inside e that has not been hoisted yet (the rewrite of e then reads
// tmp0).
func (rw *loadRewriter) hoists(e ast.Expr) []ast.Stmt {
	var out []ast.Stmt
	var walk func(x ast.Expr)
	walk = func(x ast.Expr) {
		switch ex := x.(type) {
		case *ast.ArrayRef:
			if tmp, ok := rw.genUse[ex]; ok {
				if _, reused := rw.useRepl[ex]; !reused {
					out = append(out, &ast.Assign{
						LHS: &ast.Ident{Name: tmp},
						RHS: &ast.ArrayRef{Name: ex.Name, Subs: cloneExprs(ex.Subs)},
					})
					// The use itself now reads the temp.
					rw.useRepl[ex] = tmp
				} else {
					// A reuse point that also generates: it reads its source
					// temp and feeds stage 0 via an extra copy.
					out = append(out, &ast.Assign{
						LHS: &ast.Ident{Name: tmp},
						RHS: &ast.Ident{Name: rw.useRepl[ex]},
					})
				}
			}
			for _, sub := range ex.Subs {
				walk(sub)
			}
		case *ast.Binary:
			walk(ex.L)
			walk(ex.R)
		case *ast.Unary:
			walk(ex.X)
		}
	}
	walk(e)
	return out
}

func (rw *loadRewriter) hoistsSubs(ref *ast.ArrayRef) []ast.Stmt {
	var out []ast.Stmt
	for _, sub := range ref.Subs {
		out = append(out, rw.hoists(sub)...)
	}
	return out
}

// expr rewrites an expression, replacing reuse points by their temps.
func (rw *loadRewriter) expr(e ast.Expr) ast.Expr {
	switch ex := e.(type) {
	case nil:
		return nil
	case *ast.Ident:
		return ast.CloneExpr(ex)
	case *ast.IntLit:
		return ast.CloneExpr(ex)
	case *ast.ArrayRef:
		if tmp, ok := rw.useRepl[ex]; ok {
			return &ast.Ident{Name: tmp}
		}
		return &ast.ArrayRef{NamePos: ex.NamePos, Name: ex.Name, Subs: rw.exprs(ex.Subs)}
	case *ast.Binary:
		return &ast.Binary{Op: ex.Op, L: rw.expr(ex.L), R: rw.expr(ex.R)}
	case *ast.Unary:
		return &ast.Unary{OpPos: ex.OpPos, Op: ex.Op, X: rw.expr(ex.X)}
	}
	panic("opt: unknown expression")
}

func (rw *loadRewriter) exprs(list []ast.Expr) []ast.Expr {
	out := make([]ast.Expr, len(list))
	for i, e := range list {
		out[i] = rw.expr(e)
	}
	return out
}

// exprRefSubs rewrites an assignment target: subscripts are rewritten, the
// reference itself is preserved.
func (rw *loadRewriter) exprRefSubs(lhs ast.Expr) ast.Expr {
	if ref, ok := lhs.(*ast.ArrayRef); ok {
		return &ast.ArrayRef{NamePos: ref.NamePos, Name: ref.Name, Subs: rw.exprs(ref.Subs)}
	}
	return ast.CloneExpr(lhs)
}

func cloneExprs(list []ast.Expr) []ast.Expr {
	out := make([]ast.Expr, len(list))
	for i, e := range list {
		out[i] = ast.CloneExpr(e)
	}
	return out
}
