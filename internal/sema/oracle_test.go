package sema

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/poly"
	"repro/internal/token"
)

// This file keeps the front end's former normalization as a test oracle:
// normalize every loop by sequential substitution over fresh copies,
// deep-copy the result again, and canonicalize each subscript by a round
// trip through a polynomial, a tree and Simplify. Its loop upper bound is
// the exact trip count (hi − lo + s)/s, as in Normalize. Normalize and
// CanonicalizeSubscripts must produce exactly the trees these functions
// produce, on programs where no loop reuses an enclosing induction
// variable (see Normalize). Like Normalize, it refuses a lower bound that
// reads the loop's own induction variable.

// oracleNormalize is the former Normalize.
func oracleNormalize(prog *ast.Program) (*ast.Program, error) {
	body, err := oracleNormalizeBlock(prog.Body)
	if err != nil {
		return nil, err
	}
	return oracleCanonicalize(&ast.Program{Body: body, Syms: prog.Syms, Directives: prog.Directives}), nil
}

func oracleNormalizeBlock(body []ast.Stmt) ([]ast.Stmt, error) {
	out := make([]ast.Stmt, 0, len(body))
	for _, s := range body {
		switch st := s.(type) {
		case *ast.DoLoop:
			n, err := oracleNormalizeLoop(st)
			if err != nil {
				return nil, err
			}
			out = append(out, n)
		case *ast.If:
			thenB, err := oracleNormalizeBlock(st.Then)
			if err != nil {
				return nil, err
			}
			var elseB []ast.Stmt
			if st.Else != nil {
				elseB, err = oracleNormalizeBlock(st.Else)
				if err != nil {
					return nil, err
				}
			}
			out = append(out, &ast.If{IfPos: st.IfPos, Cond: ast.CloneExpr(st.Cond), Then: thenB, Else: elseB})
		default:
			out = append(out, ast.CloneStmt(s))
		}
	}
	return out, nil
}

func oracleNormalizeLoop(st *ast.DoLoop) (*ast.DoLoop, error) {
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

	body, err := oracleNormalizeBlock(st.Body)
	if err != nil {
		return nil, err
	}

	loIsOne := false
	if v, ok := constValue(st.Lo); ok && v == 1 {
		loIsOne = true
	}
	if loIsOne && step == 1 {
		return &ast.DoLoop{
			DoPos: st.DoPos, Var: st.Var, Label: st.Label,
			Lo: ast.CloneExpr(st.Lo), Hi: ast.CloneExpr(st.Hi), Body: body,
		}, nil
	}

	// UB = (hi − lo + step)/step;  i ↦ lo + (i−1)·step.
	iv := &ast.Ident{Name: st.Var}
	ub := simplify(div(add(sub(ast.CloneExpr(st.Hi), ast.CloneExpr(st.Lo)), lit(step)), lit(step)))
	repl := simplify(add(ast.CloneExpr(st.Lo), mul(sub(iv, lit(1)), lit(step))))
	body = ast.SubstituteIdentStmts(body, st.Var, repl)

	return &ast.DoLoop{
		DoPos: st.DoPos, Var: st.Var, Label: st.Label,
		Lo: lit(1), Hi: ub, Body: body,
	}, nil
}

// oracleCanonicalize is the former CanonicalizeSubscripts: clone, then
// rewrite every polynomial subscript in place.
func oracleCanonicalize(prog *ast.Program) *ast.Program {
	out := &ast.Program{Body: ast.CloneStmts(prog.Body), Syms: prog.Syms, Directives: prog.Directives}
	ast.Inspect(out.Body, func(n ast.Node) bool {
		ref, ok := n.(*ast.ArrayRef)
		if !ok {
			return true
		}
		for k, sub := range ref.Subs {
			p, err := ExprToPoly(sub)
			if err != nil {
				continue
			}
			if e, ok := oraclePolyToExpr(p); ok {
				ref.Subs[k] = e
			}
		}
		return false // subscripts of subscripts were handled by ExprToPoly
	})
	return out
}

// oraclePolyToExpr is the former PolyToExpr: build the sum of terms from
// Monomials, then rebuild it through Simplify.
func oraclePolyToExpr(p poly.Poly) (ast.Expr, bool) {
	for _, s := range p.Symbols() {
		if strings.Contains(s, "#") {
			return nil, false
		}
	}
	var expr ast.Expr
	for _, t := range p.Monomials() {
		mag := oracleTermExpr(abs64(t.Coeff), t.Symbols)
		switch {
		case expr == nil && t.Coeff < 0:
			expr = &ast.Unary{Op: token.MINUS, X: mag}
		case expr == nil:
			expr = mag
		case t.Coeff < 0:
			expr = &ast.Binary{Op: token.MINUS, L: expr, R: mag}
		default:
			expr = &ast.Binary{Op: token.PLUS, L: expr, R: mag}
		}
	}
	if expr == nil {
		expr = &ast.IntLit{Value: 0}
	}
	return Simplify(expr), true
}

func oracleTermExpr(c int64, syms []string) ast.Expr {
	if len(syms) == 0 {
		return &ast.IntLit{Value: c}
	}
	var prod ast.Expr
	for _, s := range syms {
		id := &ast.Ident{Name: s}
		if prod == nil {
			prod = id
		} else {
			prod = &ast.Binary{Op: token.STAR, L: prod, R: id}
		}
	}
	if c == 1 {
		return prod
	}
	return &ast.Binary{Op: token.STAR, L: &ast.IntLit{Value: c}, R: prod}
}
