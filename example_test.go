package arrayflow_test

import (
	"context"
	"fmt"
	"net/http/httptest"

	arrayflow "repro"
)

// ExampleAnalyze is the package quick start: one loop, one problem
// instance, the guaranteed cross-iteration reuses.
func ExampleAnalyze() {
	prog := arrayflow.MustParse(`
do i = 1, 1000
  A[i+2] := A[i] + X
enddo
`)
	g := arrayflow.BuildGraph(prog.Body[0].(*arrayflow.Loop))
	res := arrayflow.Analyze(g, arrayflow.MustReachingDefs())
	for _, r := range arrayflow.Reuses(res) {
		fmt.Println(r)
	}
	fmt.Println("changing passes:", res.ChangedPasses)
	// Output:
	// use A[i]@n1 reuses A[i + 2] @ distance 2
	// changing passes: 0
}

// ExampleAnalyzeProgram runs the §3.2 whole-program protocol on a tight
// two-level nest: innermost-first analysis, the §3.6 re-analysis with
// respect to the enclosing induction variable, and the §6 vectors.
func ExampleAnalyzeProgram() {
	prog := arrayflow.MustParse(`
do j = 1, UB
  do i = 1, UB1
    X[i+1, j] := X[i, j]
  enddo
enddo
`)
	pa, err := arrayflow.AnalyzeProgram(prog, nil, true)
	if err != nil {
		panic(err)
	}
	fmt.Print(pa.Report())
	fmt.Println("cache-aware solves:", pa.Metrics.Solves)
	// Output:
	// program analysis: 2 loops (innermost first)
	// loop i (depth 2, 2 nodes):
	//   reuse: use X[i, j]@n1 reuses X[i + 1, j] @ distance 1
	// loop j (depth 1, 2 nodes):
	// tight nest at j: distance vectors:
	//   flow X[i + 1, j] -> X[i, j] vector (0, 1)
	// cache-aware solves: 3
}

// ExampleEliminateLoads applies the §4.2.2 redundant-load elimination: the
// recurrence's load is replaced by a scalar temporary that pipelines the
// value across iterations.
func ExampleEliminateLoads() {
	prog := arrayflow.MustParse(`
do i = 1, 1000
  A[i+2] := A[i] + X
enddo
`)
	res, err := arrayflow.EliminateLoads(prog, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("loads replaced:", len(res.Replaced))
	fmt.Print(arrayflow.ProgramString(res.Prog))
	// Output:
	// loads replaced: 1
	// tmp.A.1.1 := A[2]
	// tmp.A.1.2 := A[1]
	// do i = 1, 1000
	//   tmp.A.1.0 := tmp.A.1.2 + X
	//   A[i + 2] := tmp.A.1.0
	//   tmp.A.1.2 := tmp.A.1.1
	//   tmp.A.1.1 := tmp.A.1.0
	// enddo
}

// ExampleAllocateRegisters runs the §4.1 register-pipelining allocation on
// the Figure 5 loop.
func ExampleAllocateRegisters() {
	prog := arrayflow.MustParse(`
do i = 1, 1000
  A[i+2] := A[i] + X
enddo
`)
	g := arrayflow.BuildGraph(prog.Body[0].(*arrayflow.Loop))
	alloc := arrayflow.AllocateRegisters(g, 16)
	fmt.Print(alloc.Report())
	// Output:
	// register allocation (k=16):
	//   A[i + 2]       depth=3 access=2 priority=0.6667  allocated pipe.A.1.0,pipe.A.1.1,pipe.A.1.2
	//   X              depth=1 access=1 priority=0.0000  allocated X
}

// ExampleNewServiceHandler runs the analysis daemon in-process and drives
// it with the bundled client: the served report is byte-identical to what
// `arrayflow -program` prints for the same source.
func ExampleNewServiceHandler() {
	ts := httptest.NewServer(arrayflow.NewServiceHandler(nil))
	defer ts.Close()

	client := arrayflow.NewServiceClient(ts.URL)
	report, err := client.Analyze(context.Background(), "pipeline.loop", `
do i = 1, 8
  A[i+1] := A[i] + 1
enddo
`)
	if err != nil {
		panic(err)
	}
	fmt.Print(report)
	// Output:
	// program analysis: 1 loops (innermost first)
	// loop i (depth 1, 2 nodes):
	//   reuse: use A[i]@n1 reuses A[i + 1] @ distance 1
}
