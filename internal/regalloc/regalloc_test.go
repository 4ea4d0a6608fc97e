package regalloc

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/parser"
	"repro/internal/tac"
)

func buildLoop(t *testing.T, src string) (*ast.Program, *ir.Graph) {
	t.Helper()
	prog := parser.MustParse(src)
	loop := prog.Body[0].(*ast.DoLoop)
	g := ir.Build(loop, nil)
	return prog, g
}

// TestFig5Allocation reproduces §4.1: the A[i+2] class gets a three-stage
// pipeline (δ0 = 2, depth 3).
func TestFig5Allocation(t *testing.T) {
	_, g := buildLoop(t, `
do i = 1, 1000
  A[i+2] := A[i] + X
enddo
`)
	a := Allocate(g, &Options{K: 16})
	pipes := a.AllocatedPipelines()
	if len(pipes) != 1 {
		t.Fatalf("pipelines = %d, want 1\n%s", len(pipes), a.Report())
	}
	p := pipes[0]
	if p.Depth != 3 {
		t.Errorf("depth = %d, want 3", p.Depth)
	}
	if len(p.Stages) != 3 {
		t.Errorf("stages = %v, want 3 registers", p.Stages)
	}
	if len(p.Reuses) != 1 || p.Reuses[0].Distance != 2 {
		t.Errorf("reuses = %v", p.Reuses)
	}
}

// TestFig5EndToEnd compiles the Figure 5 loop both ways and checks the
// paper's headline: in-loop loads of A drop to zero (only the depth−1
// pipeline initialization loads remain) and the results agree.
func TestFig5EndToEnd(t *testing.T) {
	prog, g := buildLoop(t, `
do i = 1, 1000
  A[i+2] := A[i] + X
enddo
`)
	a := Allocate(g, &Options{K: 16})
	hooks, err := a.GenOptions()
	if err != nil {
		t.Fatal(err)
	}

	conventional, err := tac.Gen(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	pipelined, err := tac.Gen(prog, hooks)
	if err != nil {
		t.Fatal(err)
	}

	memA := machine.NewMemory()
	memB := machine.NewMemory()
	for i := int64(-3); i <= 3; i++ {
		memA.Set("A", i, 100+i)
		memB.Set("A", i, 100+i)
	}
	init := &machine.Options{InitRegs: map[string]int64{"X": 7}}
	resA, err := machine.Run(conventional, memA, init)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := machine.Run(pipelined, memB, &machine.Options{InitRegs: map[string]int64{"X": 7}})
	if err != nil {
		t.Fatal(err)
	}

	if !memA.Equal(memB) {
		t.Fatalf("pipelined execution diverges\n%s", pipelined)
	}
	if resA.Loads["A"] != 1000 {
		t.Errorf("conventional loads = %d, want 1000", resA.Loads["A"])
	}
	if resB.Loads["A"] != 2 {
		t.Errorf("pipelined loads = %d, want 2 (init only)\n%s", resB.Loads["A"], pipelined)
	}
	if resB.Cycles >= resA.Cycles {
		t.Errorf("pipelined cycles %d not better than conventional %d", resB.Cycles, resA.Cycles)
	}
}

// TestFig1EndToEnd pipelines the full Figure 1 loop and validates
// semantics plus load elimination for the B and C reuses.
func TestFig1EndToEnd(t *testing.T) {
	prog, g := buildLoop(t, `
do i = 1, 500
  C[i+2] := C[i] * 2
  B[2*i] := C[i] + X
  if C[i] == 0 then C[i] := B[i-1]
  B[i] := C[i+1]
enddo
`)
	a := Allocate(g, &Options{K: 32})
	hooks, err := a.GenOptions()
	if err != nil {
		t.Fatal(err)
	}
	conventional, err := tac.Gen(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	pipelined, err := tac.Gen(prog, hooks)
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(0); seed < 3; seed++ {
		memA, memB := machine.NewMemory(), machine.NewMemory()
		for i := int64(-3); i <= 1010; i++ {
			v := (i*7 + seed*13) % 11
			memA.Set("C", i, v)
			memB.Set("C", i, v)
			memA.Set("B", i, v+1)
			memB.Set("B", i, v+1)
		}
		ir := map[string]int64{"X": seed}
		resA, err := machine.Run(conventional, memA, &machine.Options{InitRegs: ir})
		if err != nil {
			t.Fatal(err)
		}
		resB, err := machine.Run(pipelined, memB, &machine.Options{InitRegs: ir})
		if err != nil {
			t.Fatal(err)
		}
		if !memA.Equal(memB) {
			t.Fatalf("seed %d: pipelined Figure 1 diverges\n%s", seed, a.Report())
		}
		totalA := resA.Loads["B"] + resA.Loads["C"]
		totalB := resB.Loads["B"] + resB.Loads["C"]
		if totalB >= totalA {
			t.Errorf("seed %d: loads not reduced: %d vs %d", seed, totalB, totalA)
		}
	}
}

// TestRegisterPressureSpills: with a tiny register budget, low-priority
// ranges are spilled rather than over-allocated (§4.1.3).
func TestRegisterPressureSpills(t *testing.T) {
	_, g := buildLoop(t, `
do i = 1, 100
  A[i+4] := A[i] + x1
  B[i+4] := B[i] + x2
  D[i+4] := D[i] + x3
enddo
`)
	// Each array wants depth 5. Scalars x1..x3 and nothing else.
	a := Allocate(g, &Options{K: 8, ExcludeScalars: true})
	pipes := a.AllocatedPipelines()
	var total int64
	for _, p := range pipes {
		total += p.Depth
	}
	if total > 8 {
		t.Fatalf("allocated depth %d exceeds budget 8\n%s", total, a.Report())
	}
	if len(pipes) != 1 {
		t.Errorf("pipelines = %d, want exactly 1 (5+5 > 8)\n%s", len(pipes), a.Report())
	}
	// With a budget of 16, two fit; three need 15 ≤ 16.
	a2 := Allocate(g, &Options{K: 15, ExcludeScalars: true})
	if got := len(a2.AllocatedPipelines()); got != 3 {
		t.Errorf("k=15: pipelines = %d, want 3\n%s", got, a2.Report())
	}
}

// TestScalarCompetition: scalars participate in the IRIG (§4.1's uniform
// competition). With k=5 and demand 3+1+1+1=6, the priority formula ranks
// the reused pipeline above single-access scalars: the pipeline and two
// scalars win, one scalar is spilled, and the budget is respected.
func TestScalarCompetition(t *testing.T) {
	_, g := buildLoop(t, `
do i = 1, 100
  A[i+2] := A[i] + x + y + z
enddo
`)
	a := Allocate(g, &Options{K: 5})
	if got := len(a.AllocatedPipelines()); got != 1 {
		t.Errorf("k=5: pipelines = %d, want 1 (pipeline outranks 0-priority scalars)\n%s",
			got, a.Report())
	}
	var allocated, spilled int64
	for _, lr := range a.Ranges {
		if lr.Allocated {
			allocated += lr.Depth
		} else {
			spilled++
		}
	}
	if allocated > 5 {
		t.Errorf("allocated depth %d exceeds budget\n%s", allocated, a.Report())
	}
	if spilled != 1 {
		t.Errorf("spilled = %d, want exactly 1 scalar\n%s", spilled, a.Report())
	}
	// With k=6 everything fits and phase-1 peeling alone colors the graph.
	a6 := Allocate(g, &Options{K: 6})
	for _, lr := range a6.Ranges {
		if !lr.Allocated {
			t.Errorf("k=6: %s spilled\n%s", lr.Name(), a6.Report())
		}
	}
}

// TestNoReuseNoPipeline: a loop without cross-iteration reuse allocates no
// pipelines.
func TestNoReuseNoPipeline(t *testing.T) {
	_, g := buildLoop(t, `
do i = 1, 100
  A[i] := B[i] + 1
enddo
`)
	a := Allocate(g, &Options{K: 16})
	// B[i] is read once and A[i] written once per iteration — no reuse.
	// (A distance-0 class exists for neither since no second access.)
	if got := len(a.AllocatedPipelines()); got != 0 {
		t.Errorf("pipelines = %d, want 0\n%s", got, a.Report())
	}
}

// TestConditionalReuseNotPipelined: a conditional definition produces no
// guaranteed reuse, hence no pipeline.
func TestConditionalReuseNotPipelined(t *testing.T) {
	_, g := buildLoop(t, `
do i = 1, 100
  if c > 0 then
    A[i+1] := c
  endif
  B[i] := A[i]
enddo
`)
	a := Allocate(g, &Options{K: 16})
	for _, p := range a.AllocatedPipelines() {
		if p.Class.Array == "A" {
			t.Errorf("conditional definition pipelined\n%s", a.Report())
		}
	}
}

// TestPriorityFormula pins the priority calculation of §4.1.2.
func TestPriorityFormula(t *testing.T) {
	_, g := buildLoop(t, `
do i = 1, 100
  A[i+1] := A[i] + x
enddo
`)
	a := Allocate(g, &Options{K: 16, MemCost: 4})
	var lr *LiveRange
	for _, r := range a.Ranges {
		if r.Class != nil && r.Class.Array == "A" {
			lr = r
		}
	}
	if lr == nil {
		t.Fatal("A range missing")
	}
	// access = 1 gen + 1 reuse = 2; |l| = nodes; depth = 2.
	want := float64(lr.Access-1) * 4 / float64(int64(len(g.Nodes))*lr.Depth)
	if lr.Priority != want {
		t.Errorf("priority = %v, want %v", lr.Priority, want)
	}
	if !strings.Contains(a.Report(), "allocated") {
		t.Errorf("report: %s", a.Report())
	}
}

// TestDepthTwoPipelineShifts: a distance-1 reuse yields a two-stage
// pipeline with exactly one shift move per iteration.
func TestDepthTwoPipelineShifts(t *testing.T) {
	prog, g := buildLoop(t, `
do i = 1, 100
  A[i+1] := A[i] + x
enddo
`)
	a := Allocate(g, &Options{K: 16})
	hooks, err := a.GenOptions()
	if err != nil {
		t.Fatal(err)
	}
	loop := prog.Body[0].(*ast.DoLoop)
	if got := len(hooks.Shifts[loop.Label]); got != 1 {
		t.Errorf("shifts = %d, want 1", got)
	}
	if got := len(hooks.Preheader[loop.Label]); got != 1 {
		t.Errorf("preheader loads = %d, want 1", got)
	}
	// Init index is f(1−1) = f(0) = 0+1 = 1 → A[1].
	pl := hooks.Preheader[loop.Label][0]
	if gotIdx := ast.ExprString(pl.Index); gotIdx != "1" {
		t.Errorf("init index = %s, want 1", gotIdx)
	}
}
