package sema_test

import (
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/ast/asttest"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/synth"
)

// FuzzNormalize compares Normalize with the oracle on parsed input: equal
// trees or equal error texts, the input unchanged, and nothing shared
// between input and output. Nests that reuse an induction variable are
// skipped. On every input that parses, and on its normalized form when
// Normalize accepts it, ir.RefExprs must list each loop's references in
// ir.Build's ID order, and every list must have cap == len. Run with `go test -run '^$' -fuzz '^FuzzNormalize$'
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
		checkExactLists(t, "parsed", prog)
		if norm, err := sema.Normalize(prog); err == nil {
			checkRefExprs(t, norm)
			checkExactLists(t, "normalized", norm)
		}
	})
}

// TestListsHaveExactCapacity requires cap == len of every list the front
// end builds (see ast.Alloc), on every seed and example program and on
// the synthetic programs of internal/synth: as parsed, as normalized, and
// with its subscripts canonicalized.
func TestListsHaveExactCapacity(t *testing.T) {
	progs := map[string]*ast.Program{
		"synth.Loop":             synth.Loop(synth.Params{Stmts: 40, Arrays: 4, MaxDist: 5, CondProb: 0.3, Seed: 3}),
		"synth.RecurrenceLoop":   synth.RecurrenceLoop(3, 0),
		"synth.KilledRecurrence": synth.KilledRecurrenceLoop(2, 100),
		"synth.ChainLoop":        synth.ChainLoop(6, 2, 0),
		"synth.MultiLoopProgram": synth.MultiLoopProgram(synth.MultiParams{Seed: 13, Loops: 8, StmtsPer: 12, NestEvery: 3}),
		"synth.WideLoop":         synth.WideLoop(300, 0),
	}
	for k, src := range sema.NormalizeSources(t) {
		if prog, err := parser.Parse(src); err == nil {
			progs[fmt.Sprintf("source %d", k)] = prog
		}
	}
	for name, prog := range progs {
		checkExactLists(t, name+", parsed", prog)
		checkExactLists(t, name+", canonicalized", sema.CanonicalizeSubscripts(prog))
		if norm, err := sema.Normalize(prog); err == nil {
			checkExactLists(t, name+", normalized", norm)
		}
	}
}

func checkExactLists(t *testing.T, what string, prog *ast.Program) {
	t.Helper()
	if err := asttest.ExactLists(prog.Body); err != nil {
		t.Fatalf("%s: %v\n%s", what, err, ast.ProgramString(prog))
	}
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
		g := ir.Build(loop, nil)
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
