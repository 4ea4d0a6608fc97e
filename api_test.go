package arrayflow_test

import (
	"strings"
	"testing"

	arrayflow "repro"
)

// TestPublicAPIQuickstart exercises the doc-comment workflow end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	prog, err := arrayflow.Parse(`
do i = 1, 1000
  A[i+2] := A[i] + X
enddo
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arrayflow.Check(prog); err != nil {
		t.Fatal(err)
	}
	loop := prog.Body[0].(*arrayflow.Loop)
	g := arrayflow.BuildGraph(loop)
	res := arrayflow.Analyze(g, arrayflow.MustReachingDefs())
	reuses := arrayflow.Reuses(res)
	if len(reuses) != 1 || reuses[0].Distance != 2 {
		t.Fatalf("reuses = %v, want one at distance 2", reuses)
	}
}

func TestPublicAPIPipelineFlow(t *testing.T) {
	prog := arrayflow.MustParse(`
do i = 1, 100
  A[i+1] := A[i] + X
enddo
`)
	loop := prog.Body[0].(*arrayflow.Loop)
	g := arrayflow.BuildGraph(loop)
	alloc := arrayflow.AllocateRegisters(g, 8)
	hooks, err := alloc.GenOptions()
	if err != nil {
		t.Fatal(err)
	}
	conv, err := arrayflow.Compile(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := arrayflow.Compile(prog, hooks)
	if err != nil {
		t.Fatal(err)
	}
	memA, memB := arrayflow.NewMemory(), arrayflow.NewMemory()
	memA.Set("A", 1, 11)
	memB.Set("A", 1, 11)
	resA, err := arrayflow.Execute(conv, memA, map[string]int64{"X": 1})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := arrayflow.Execute(pipe, memB, map[string]int64{"X": 1})
	if err != nil {
		t.Fatal(err)
	}
	if !memA.Equal(memB) {
		t.Fatal("semantics diverge")
	}
	if resB.Loads["A"] >= resA.Loads["A"] {
		t.Fatalf("loads not reduced: %d vs %d", resB.Loads["A"], resA.Loads["A"])
	}
}

func TestPublicAPIOptimizations(t *testing.T) {
	prog := arrayflow.MustParse(`
do i = 1, 200
  A[i] := c
  if c > 0 then
    A[i+1] := c * 2
  endif
enddo
`)
	st, err := arrayflow.EliminateStores(prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Removed) != 1 {
		t.Fatalf("removed = %d", len(st.Removed))
	}

	le, err := arrayflow.EliminateLoads(arrayflow.MustParse(`
do i = 1, 200
  B[i+1] := B[i] + 1
enddo
`), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(le.Replaced) != 1 {
		t.Fatalf("replaced = %d", len(le.Replaced))
	}

	un, err := arrayflow.ControlledUnroll(arrayflow.MustParse(`
do i = 1, 200
  D[i+2] := D[i] + 1
enddo
`), 0, 1.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if un.Factor < 2 {
		t.Fatalf("factor = %d", un.Factor)
	}
}

func TestPublicAPIInterpreterAndNormalize(t *testing.T) {
	prog := arrayflow.MustParse(`
do i = 2, 20, 2
  A[i] := i
enddo
`)
	norm, err := arrayflow.Normalize(prog)
	if err != nil {
		t.Fatal(err)
	}
	s1, _, err := arrayflow.Interpret(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := arrayflow.Interpret(norm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !arrayflow.ArraysEqual(s1, s2) {
		t.Fatal("normalization changed semantics")
	}
}

func TestPublicAPIWholeProgram(t *testing.T) {
	prog := arrayflow.MustParse(`
do j = 1, UB
  do i = 1, UB1
    Z[i+1, j] := Z[i, j-1]
  enddo
enddo
`)
	pa, err := arrayflow.AnalyzeProgram(prog, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pa.Loops) != 2 {
		t.Fatalf("loops = %d", len(pa.Loops))
	}
	if !strings.Contains(pa.Report(), "(1, 1)") {
		t.Errorf("Z vector missing from report:\n%s", pa.Report())
	}
}

func TestPublicAPIBaselineAndTACOpt(t *testing.T) {
	prog := arrayflow.MustParse(`
do i = 1, 50
  A[i+4] := A[i] + 1
  A[i] := 2
enddo
`)
	loop := prog.Body[0].(*arrayflow.Loop)
	g := arrayflow.BuildGraph(loop)
	bl := arrayflow.BaselineMustReachingDefs(g, 16)
	if !bl.Converged {
		t.Fatal("baseline did not converge")
	}
	code, err := arrayflow.Compile(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt, stats := arrayflow.OptimizeTAC(code)
	if len(opt.Instrs) > len(code.Instrs) {
		t.Errorf("optimizer grew the program: %d -> %d (%s)",
			len(code.Instrs), len(opt.Instrs), stats)
	}
}

func TestPublicAPIDependences(t *testing.T) {
	prog := arrayflow.MustParse(`
do i = 1, 100
  A[i+1] := A[i] + 1
enddo
`)
	loop := prog.Body[0].(*arrayflow.Loop)
	g := arrayflow.BuildGraph(loop)
	res := arrayflow.Analyze(g, arrayflow.ReachingRefs())
	deps := arrayflow.Dependences(res, 10)
	if len(deps) == 0 {
		t.Fatal("no dependences")
	}
	dg := arrayflow.BuildDependenceGraph(g, 10)
	if dg.CriticalPath() != 1 {
		t.Errorf("critical path = %d", dg.CriticalPath())
	}
}
