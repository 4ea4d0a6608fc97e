package ir_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ast"
	"repro/internal/goimport"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/synth"
)

// checkRefExprs holds ir.RefExprs to ir.Build's reference IDs on every loop
// of prog, nested loops included: RefExprs(loop)[k] must be the Expr of
// Build(loop).Refs[k]. It returns the references compared.
func checkRefExprs(t *testing.T, name string, prog *ast.Program) int {
	t.Helper()
	n := 0
	ast.Inspect(prog.Body, func(nd ast.Node) bool {
		loop, ok := nd.(*ast.DoLoop)
		if !ok {
			return true
		}
		g := ir.Build(loop, nil)
		exprs := ir.RefExprs(loop)
		if len(exprs) != len(g.Refs) {
			t.Fatalf("%s: loop %s at %s: RefExprs lists %d references, Build %d", name, loop.Var, loop.Pos(), len(exprs), len(g.Refs))
		}
		for k, r := range g.Refs {
			if exprs[k] != r.Expr {
				t.Fatalf("%s: loop %s at %s: RefExprs[%d] is %s at %s, Build's ref %d is %s at %s", name, loop.Var, loop.Pos(),
					k, ast.ExprString(exprs[k]), exprs[k].Pos(), r.ID, ast.ExprString(r.Expr), r.Expr.Pos())
			}
		}
		n += len(exprs)
		return true
	})
	return n
}

// TestRefExprsMatchBuild compares RefExprs' walk of a whole body with the
// numbering Build makes as it lays out node by node, on every example program
// (parsed and normalized), on synthetic loops with conditionals and
// programs with nests, on hand-written shapes the generators do not
// produce, and on every loop the Go front end lowers from examples/go and
// from this module's own source.
func TestRefExprsMatchBuild(t *testing.T) {
	refs := 0
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.loop"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.ParseBytes(src, nil)
		if err != nil {
			continue // some examples are intentionally invalid
		}
		refs += checkRefExprs(t, p, prog)
		if norm, fail := sema.Load(src, nil); fail == nil {
			refs += checkRefExprs(t, p+" normalized", norm)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		refs += checkRefExprs(t, fmt.Sprintf("synth loop %d", seed),
			synth.Loop(synth.Params{Seed: seed, Stmts: int(seed) + 2, Arrays: 4, MaxDist: 5, CondProb: 0.4}))
		refs += checkRefExprs(t, fmt.Sprintf("synth program %d", seed),
			synth.MultiLoopProgram(synth.MultiParams{Seed: seed, Loops: 4, StmtsPer: 5, NestEvery: int(seed%3) + 1}))
	}
	shapes := map[string]string{
		"folded cond": "do i = 1, N\n  A[i] := B[C[i]] + 1\n  if A[i-1] > B[i] then\n    C[i] := -A[i+1]\n  else\n    D[i] := 2\n  endif\nenddo\n",
		"cond first":  "do i = 1, N\n  if A[i] > 0 then\n    B[i] := A[i]\n  endif\nenddo\n",
		"inner loop":  "do i = 1, N\n  do j = A[i], B[i]\n    if C[j] > 0 then\n      C[j] := D[i, j]\n    endif\n    do k = 1, 3\n      E[k] := E[k+1]\n    enddo\n  enddo\n  F[i] := F[i-1]\nenddo\n",
	}
	for name, src := range shapes {
		refs += checkRefExprs(t, name, parser.MustParse(src))
	}
	for _, pattern := range []string{
		filepath.Join("..", "..", "examples", "go"),
		filepath.Join("..", "..") + "/...",
	} {
		res, err := goimport.ImportTree(pattern, false)
		if err != nil {
			t.Fatal(err)
		}
		units := res.Units()
		if len(units) == 0 {
			t.Fatalf("%s: no lowered units", pattern)
		}
		for _, u := range units {
			refs += checkRefExprs(t, u.File+" "+u.Func, u.Program)
		}
	}
	if refs < 1000 {
		t.Fatalf("only %d references compared", refs)
	}
}
