package sema_test

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/sema"
)

// FuzzNormalize compares Normalize with the oracle on parsed input: equal
// trees or equal error texts, the input unchanged, and nothing shared
// between input and output. Nests that reuse an induction variable are
// skipped. On every input that parses, and on its normalized form when
// Normalize accepts it, ir.RefExprs must list each loop's references in
// ir.Build's ID order. Run with `go test -run '^$' -fuzz '^FuzzNormalize$'
// ./internal/sema`; the seeds run as a normal test.
func FuzzNormalize(f *testing.F) {
	for _, s := range sema.NormalizeSources(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return
		}
		sema.CheckSource(t, "fuzz input", src)
		prog, err := parser.Parse(src)
		if err != nil {
			return
		}
		checkRefExprs(t, prog)
		if norm, err := sema.Normalize(prog); err == nil {
			checkRefExprs(t, norm)
		}
	})
}

// checkRefExprs requires RefExprs(loop)[k] to be Build(loop).Refs[k].Expr
// on every loop of prog.
func checkRefExprs(t *testing.T, prog *ast.Program) {
	t.Helper()
	ast.Inspect(prog.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.DoLoop)
		if !ok {
			return true
		}
		g, err := ir.Build(loop, nil)
		if err != nil {
			t.Fatalf("loop %s at %s: %v", loop.Var, loop.Pos(), err)
		}
		exprs := ir.RefExprs(loop)
		if len(exprs) != len(g.Refs) {
			t.Fatalf("loop %s at %s: RefExprs lists %d references, Build %d", loop.Var, loop.Pos(), len(exprs), len(g.Refs))
		}
		for k, r := range g.Refs {
			if exprs[k] != r.Expr {
				t.Fatalf("loop %s at %s: RefExprs[%d] is %s at %s, Build's ref %d is %s at %s", loop.Var, loop.Pos(),
					k, ast.ExprString(exprs[k]), exprs[k].Pos(), r.ID, ast.ExprString(r.Expr), r.Expr.Pos())
			}
		}
		return true
	})
}
