// Multi-dimensional references and tight loop nests (paper §3.6 and the §6
// extension): the Figure 4 nest carries three recurrences —
//
//	X[i+1, j] := X[i, j]     distance 1 wrt the inner loop   (single-loop finds it)
//	Y[i, j+1] := Y[i, j-1]   distance 2 wrt the outer loop   (single-loop finds it)
//	Z[i+1, j] := Z[i, j-1]   vector (1, 1) over both loops   (only the extension finds it)
//
// The single-loop analyses linearize subscripts with symbolic strides
// (X[i+1, j] ≡ X[N·i + N + j]) and resolve kill distances by exact
// symbolic division (N/N = 1); the Z recurrence needs the distance-vector
// solve δi·N + δj = N + 1 ⇒ (1, 1).
package main

import (
	"fmt"
	"log"

	arrayflow "repro"
)

const fig4 = `
do j = 1, UB
  do i = 1, UB1
    X[i+1, j] := X[i, j]
    Y[i, j+1] := Y[i, j-1]
    Z[i+1, j] := Z[i, j-1]
  enddo
enddo
`

func main() {
	prog := arrayflow.MustParse(fig4)
	outer := prog.Body[0].(*arrayflow.Loop)
	inner := outer.Body[0].(*arrayflow.Loop)

	// Single-loop analysis with respect to the inner induction variable:
	// j and the array strides act as symbolic constants.
	fmt.Println("== single-loop analysis (inner loop, iv = i) ==")
	g := arrayflow.BuildGraph(inner)
	res := arrayflow.Analyze(g, arrayflow.MustReachingDefs())
	for _, r := range arrayflow.Reuses(res) {
		fmt.Println("  " + r.String())
	}
	fmt.Println("  (the X recurrence appears; Y and Z do not — their distances involve j or both IVs)")

	// The §6 extension: distance vectors over the tight nest.
	fmt.Println("\n== distance-vector analysis of the tight nest ==")
	recs, err := arrayflow.NestRecurrences(outer, 8)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range recs {
		tag := "single-loop analysis finds this too"
		if !r.FoundBySingleLoop {
			tag = "ONLY the vector extension finds this (paper §3.6's open case)"
		}
		fmt.Printf("  %-46s %s\n", r.String(), tag)
	}
}
