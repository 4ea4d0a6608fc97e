// Package opt implements the source-level optimizations of paper §4:
// redundant store elimination with final-iteration unpeeling (§4.2.1),
// redundant load elimination via scalar temporaries (§4.2.2), and
// controlled loop unrolling (§4.3). All transformations return a new
// program; the input is never mutated, so analysis references into the
// original AST stay valid.
package opt

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/problems"
	"repro/internal/sema"
	"repro/internal/token"
)

// StoreElimResult reports a redundant-store elimination.
type StoreElimResult struct {
	// Prog is the transformed program.
	Prog *ast.Program
	// Removed lists the eliminated stores.
	Removed []problems.RedundantStore
	// PeeledIterations is the number of final iterations unpeeled.
	PeeledIterations int64
}

// EliminateStores removes δ-redundant stores from the loop at prog.Body[idx]
// and unpeels the final δ iterations (Figure 6). When no store is
// redundant, it returns the original program and an empty result.
func EliminateStores(prog *ast.Program, idx int) (*StoreElimResult, error) {
	loop, ok := prog.Body[idx].(*ast.DoLoop)
	if !ok {
		return nil, fmt.Errorf("opt: statement %d is not a loop", idx)
	}
	g := ir.Build(loop, nil)
	res := problems.Solve(g, problems.BusyStores())
	cands := problems.FindRedundantStores(res)

	// Select eliminable candidates: 1-D references whose statements we can
	// locate and drop; one candidate per assignment statement.
	var chosen []problems.RedundantStore
	drop := map[*ast.Assign]bool{}
	var maxDelta int64
	for _, c := range cands {
		if len(c.Store.Expr.Subs) != 1 {
			continue
		}
		as := c.Store.Node.Assign
		if as == nil || drop[as] {
			continue
		}
		if lhs, isRef := as.LHS.(*ast.ArrayRef); !isRef || lhs != c.Store.Expr {
			continue
		}
		drop[as] = true
		chosen = append(chosen, c)
		if c.Distance > maxDelta {
			maxDelta = c.Distance
		}
	}
	if len(chosen) == 0 {
		return &StoreElimResult{Prog: prog}, nil
	}

	// New loop body without the dropped assignments.
	newBody := removeAssigns(loop.Body, drop)

	// New bound: UB − maxδ.
	newHi := sema.Simplify(&ast.Binary{Op: token.MINUS,
		L: ast.CloneExpr(loop.Hi), R: &ast.IntLit{Value: maxDelta}})

	newLoop := &ast.DoLoop{
		DoPos: loop.DoPos, Var: loop.Var, Label: loop.Label,
		Lo: ast.CloneExpr(loop.Lo), Hi: newHi, Body: newBody,
	}

	// Peeled final iterations with the full original body: iteration
	// UB−maxδ+k for k = 1..maxδ. With a symbolic bound each copy is guarded
	// against a short loop (UB < maxδ).
	_, ubConst := sema.ConstValue(loop.Hi)
	var peeled []ast.Stmt
	for k := int64(1); k <= maxDelta; k++ {
		iter := sema.Simplify(&ast.Binary{Op: token.PLUS,
			L: &ast.Binary{Op: token.MINUS, L: ast.CloneExpr(loop.Hi), R: &ast.IntLit{Value: maxDelta}},
			R: &ast.IntLit{Value: k}})
		copyBody := ast.SubstituteIdentStmts(loop.Body, loop.Var, iter)
		if ubConst {
			peeled = append(peeled, copyBody...)
		} else {
			guard := &ast.Binary{Op: token.GEQ, L: ast.CloneExpr(iter), R: &ast.IntLit{Value: 1}}
			peeled = append(peeled, &ast.If{Cond: guard, Then: copyBody})
		}
	}

	out := &ast.Program{}
	for j, s := range prog.Body {
		if j == idx {
			out.Body = append(out.Body, newLoop)
			out.Body = append(out.Body, peeled...)
		} else {
			out.Body = append(out.Body, ast.CloneStmt(s))
		}
	}
	return &StoreElimResult{Prog: out, Removed: chosen, PeeledIterations: maxDelta}, nil
}

// removeAssigns deep-copies a statement list, dropping the marked
// assignments and pruning conditionals left with no effect.
func removeAssigns(body []ast.Stmt, drop map[*ast.Assign]bool) []ast.Stmt {
	var out []ast.Stmt
	for _, s := range body {
		switch st := s.(type) {
		case *ast.Assign:
			if drop[st] {
				continue
			}
			out = append(out, ast.CloneStmt(st))
		case *ast.If:
			thenB := removeAssigns(st.Then, drop)
			var elseB []ast.Stmt
			if st.Else != nil {
				elseB = removeAssigns(st.Else, drop)
			}
			if len(thenB) == 0 && len(elseB) == 0 {
				continue // the condition has no side effects in this language
			}
			out = append(out, &ast.If{IfPos: st.IfPos, Cond: ast.CloneExpr(st.Cond), Then: thenB, Else: elseB})
		case *ast.DoLoop:
			inner := removeAssigns(st.Body, drop)
			cl := &ast.DoLoop{DoPos: st.DoPos, Var: st.Var, Label: st.Label,
				Lo: ast.CloneExpr(st.Lo), Hi: ast.CloneExpr(st.Hi), Body: inner}
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
