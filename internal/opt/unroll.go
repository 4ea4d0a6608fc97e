package opt

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/depend"
	"repro/internal/ir"
	"repro/internal/sema"
	"repro/internal/token"
)

// UnrollResult reports a controlled loop unrolling decision (§4.3).
type UnrollResult struct {
	Prog *ast.Program
	// Factor is the chosen unroll factor (1 = not unrolled).
	Factor int
	// CriticalPath is l, the critical path of one iteration; Predicted[u]
	// is l_unroll for u copies (index 1 = l).
	CriticalPath int64
	Predicted    []int64
}

// UnrollOptions tunes the §4.3 strategy.
type UnrollOptions struct {
	// Threshold is the paper's τ expressed as the ratio τ/l ∈ [1, 2): an
	// unroll step that extends the critical path by at least (τ/l − 1)·l
	// (i.e. creates no usable parallelism) stops the process. Default 1.5.
	Threshold float64
	// MaxFactor bounds the unroll factor (default 8).
	MaxFactor int
}

// ControlledUnroll decides an unroll factor for the loop at prog.Body[idx]
// by the incremental prediction strategy of §4.3 — each step is taken only
// if the predicted critical path of the larger body stays below the
// threshold — and performs the unrolling.
func ControlledUnroll(prog *ast.Program, idx int, opts *UnrollOptions) (*UnrollResult, error) {
	if opts == nil {
		opts = &UnrollOptions{}
	}
	th := opts.Threshold
	if th <= 0 {
		th = 1.5
	}
	if th < 1 {
		th = 1
	}
	if th >= 2 {
		th = 1.999
	}
	maxF := opts.MaxFactor
	if maxF <= 0 {
		maxF = 8
	}

	loop, ok := prog.Body[idx].(*ast.DoLoop)
	if !ok {
		return nil, fmt.Errorf("opt: statement %d is not a loop", idx)
	}
	g := ir.Build(loop, nil)
	dg := depend.BuildFromLoop(g, int64(maxF))

	l := dg.CriticalPath()
	res := &UnrollResult{CriticalPath: l, Predicted: []int64{0, l}}
	// Step budget: an additional copy may add at most stepBudget to the
	// critical path; τ ∈ [l, 2l) ⇒ budget = τ − l ∈ [0, l).
	stepBudget := (th - 1) * float64(l)

	factor := 1
	for u := 2; u <= maxF; u++ {
		lu := dg.UnrolledCriticalPath(u)
		res.Predicted = append(res.Predicted, lu)
		prev := res.Predicted[u-1]
		if float64(lu-prev) > stepBudget {
			break
		}
		factor = u
	}
	res.Factor = factor
	if factor == 1 {
		res.Prog = prog
		return res, nil
	}
	unrolled, err := Unroll(prog, idx, factor)
	if err != nil {
		return nil, err
	}
	res.Prog = unrolled
	return res, nil
}

// Unroll mechanically unrolls the (normalized) loop at prog.Body[idx] by
// the given factor:
//
//	do i = 1, UB            do i = 1, UB−(u−1), u
//	  body(i)          ⇒       body(i); body(i+1); …; body(i+u−1)
//	enddo                   enddo
//	                        do i = (UB/u)·u + 1, UB   // remainder
//	                          body(i)
//	                        enddo
func Unroll(prog *ast.Program, idx int, factor int) (*ast.Program, error) {
	loop, ok := prog.Body[idx].(*ast.DoLoop)
	if !ok {
		return nil, fmt.Errorf("opt: statement %d is not a loop", idx)
	}
	if factor < 2 {
		return prog, nil
	}
	if lo, isC := sema.ConstValue(loop.Lo); !isC || lo != 1 || loop.Step != nil {
		return nil, fmt.Errorf("opt: unrolling requires a normalized loop (1..UB step 1)")
	}
	u := int64(factor)
	iv := loop.Var

	var mainBody []ast.Stmt
	for k := int64(0); k < u; k++ {
		at := sema.Simplify(&ast.Binary{Op: token.PLUS,
			L: &ast.Ident{Name: iv}, R: &ast.IntLit{Value: k}})
		mainBody = append(mainBody, ast.SubstituteIdentStmts(loop.Body, iv, at)...)
	}
	mainHi := sema.Simplify(&ast.Binary{Op: token.MINUS,
		L: ast.CloneExpr(loop.Hi), R: &ast.IntLit{Value: u - 1}})
	mainLoop := &ast.DoLoop{
		DoPos: loop.DoPos, Var: iv, Label: loop.Label,
		Lo: &ast.IntLit{Value: 1}, Hi: mainHi, Step: &ast.IntLit{Value: u},
		Body: mainBody,
	}

	// Remainder: i = (UB/u)·u + 1 .. UB.
	remLo := sema.Simplify(&ast.Binary{Op: token.PLUS,
		L: &ast.Binary{Op: token.STAR,
			L: &ast.Binary{Op: token.SLASH, L: ast.CloneExpr(loop.Hi), R: &ast.IntLit{Value: u}},
			R: &ast.IntLit{Value: u}},
		R: &ast.IntLit{Value: 1}})
	remLoop := &ast.DoLoop{
		Var: iv, Label: loop.Label + 1000, // fresh label
		Lo: remLo, Hi: ast.CloneExpr(loop.Hi), Body: ast.CloneStmts(loop.Body),
	}

	out := &ast.Program{}
	for j, s := range prog.Body {
		if j == idx {
			out.Body = append(out.Body, mainLoop, remLoop)
		} else {
			out.Body = append(out.Body, ast.CloneStmt(s))
		}
	}
	// Collapse the substitution residue (i+0, i+1, …) in subscripts to
	// canonical affine form so later passes see clean strides.
	return sema.CanonicalizeSubscripts(out), nil
}
