// Quickstart: parse the paper's Figure 1 loop, run must-reaching
// definitions, print the Table 1 tuple tables and the guaranteed reuse
// facts of §3.5.
package main

import (
	"fmt"
	"log"

	arrayflow "repro"
)

const fig1 = `
do i = 1, UB
  C[i+2] := C[i] * 2
  B[2*i] := C[i] + X
  if C[i] == 0 then C[i] := B[i-1]
  B[i] := C[i+1]
enddo
`

func main() {
	prog, err := arrayflow.Parse(fig1)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := arrayflow.Check(prog); err != nil {
		log.Fatal(err)
	}

	loop, ok := prog.Body[0].(*arrayflow.Loop)
	if !ok {
		log.Fatal("expected a loop")
	}
	g := arrayflow.BuildGraph(loop)

	fmt.Println("Loop flow graph (paper Figure 3):")
	fmt.Println(g.Dump())

	res := arrayflow.AnalyzeTraced(g, arrayflow.MustReachingDefs())
	fmt.Println("Initialization pass (Table 1 (i)):")
	fmt.Println(res.TupleTable(0))
	fmt.Println("Iteration pass 1 (Table 1 (ii)):")
	fmt.Println(res.TupleTable(1))
	fmt.Println("Iteration pass 2 — the fixed point (Table 1 (ii)):")
	fmt.Println(res.TupleTable(2))

	fmt.Println("Guaranteed value reuses (§3.5):")
	for _, r := range arrayflow.Reuses(res) {
		fmt.Println("  " + r.String())
	}
}
