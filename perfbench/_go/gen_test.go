package main

import (
	"testing"

	"repro"
	"repro/internal/ast"
)

// shapeCount is what a program's shape promises, counted from its AST.
type shapeCount struct {
	loops, stmts, nests, constLoops int
}

func countShape(t *testing.T, src string) shapeCount {
	t.Helper()
	prog, err := arrayflow.Parse(src)
	if err != nil {
		t.Fatalf("generated program does not parse: %v\n%s", err, src)
	}
	var c shapeCount
	var walk func([]ast.Stmt)
	walk = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *ast.DoLoop:
				c.loops++
				if len(s.Body) == 1 {
					if _, ok := s.Body[0].(*ast.DoLoop); ok {
						c.nests++
					}
				}
				if _, ok := s.Hi.(*ast.IntLit); ok {
					c.constLoops++
				}
				walk(s.Body)
			case *ast.If:
				walk(s.Then)
				walk(s.Else)
			case *ast.Assign:
				c.stmts++
			}
		}
	}
	walk(prog.Body)
	return c
}

func workloadShapes() map[string]shape {
	out := map[string]shape{"vet-serve": vetShape, "analyze-restart": restartShape}
	for i, s := range bundleShapes {
		out["batch-cold/"+string(rune('a'+i))] = s
	}
	return out
}

func TestGenerateSameSeedSameBytes(t *testing.T) {
	for name, s := range workloadShapes() {
		if a, b := generate(s, 7), generate(s, 7); a != b {
			t.Errorf("%s: seed 7 gave two different programs", name)
		}
	}
}

func TestGenerateSeedsDifferInContentNotShape(t *testing.T) {
	for name, s := range workloadShapes() {
		a, b := generate(s, 1), generate(s, 2)
		if a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same program", name)
		}
		want := shapeCount{loops: s.loops(), stmts: s.stmts(), nests: s.Nests, constLoops: s.ConstLoops}
		for seed, src := range map[int]string{1: a, 2: b} {
			if got := countShape(t, src); got != want {
				t.Errorf("%s seed %d: shape %+v, want %+v", name, seed, got, want)
			}
		}
	}
}

// TestGeneratedProgramsPassTheFrontEnd guards the workloads against inputs
// the program rejects: every op must be able to succeed.
func TestGeneratedProgramsPassTheFrontEnd(t *testing.T) {
	for name, s := range workloadShapes() {
		if _, err := frontEnd(generate(s, 3)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
