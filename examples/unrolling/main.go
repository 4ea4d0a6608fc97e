// Controlled loop unrolling (paper §4.3): the δ-reaching-references
// analysis supplies loop-carried dependence distances; the critical path of
// the unrolled body is predicted *before* transforming anything, and
// unrolling proceeds only while each extra copy creates usable parallelism.
//
// Three characteristic loops:
//   - a distance-2 recurrence (Figure 5's loop): copies pair up, unroll wins;
//   - a distance-1 recurrence: fully serial, the controller refuses;
//   - a wide independent body: fully parallel, unroll to the maximum.
package main

import (
	"fmt"
	"log"

	arrayflow "repro"
)

func main() {
	cases := []struct {
		name string
		src  string
	}{
		{"distance-2 recurrence", `
do i = 1, 100
  A[i+2] := A[i] + x
enddo
`},
		{"distance-1 recurrence", `
do i = 1, 100
  A[i+1] := A[i] + x
enddo
`},
		{"independent statements", `
do i = 1, 100
  B[i] := x + 1
  C[i] := y * 2
  D[i] := z - 3
enddo
`},
	}

	for _, c := range cases {
		fmt.Printf("== %s ==\n", c.name)
		prog := arrayflow.MustParse(c.src)

		loop := prog.Body[0].(*arrayflow.Loop)
		g := arrayflow.BuildGraph(loop)
		dg := arrayflow.BuildDependenceGraph(g, 8)
		fmt.Print(dg.String())
		fmt.Printf("critical path l = %d; l_unroll(2) = %d; l_unroll(4) = %d\n",
			dg.CriticalPath(), dg.UnrolledCriticalPath(2), dg.UnrolledCriticalPath(4))

		res, err := arrayflow.ControlledUnroll(prog, 0, 1.2, 4)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("chosen unroll factor: %d\n", res.Factor)
		if res.Factor > 1 {
			fmt.Println("unrolled program:")
			fmt.Print(arrayflow.ProgramString(res.Prog))

			// Differential check via the interpreter.
			init := arrayflow.NewState()
			for _, s := range []string{"x", "y", "z"} {
				init.Scalars[s] = 2
			}
			for i := int64(-2); i <= 110; i++ {
				init.SetArray("A", i, i)
			}
			s1, _, err := arrayflow.Interpret(prog, init)
			if err != nil {
				log.Fatal(err)
			}
			s2, _, err := arrayflow.Interpret(res.Prog, init)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("semantics equal:", arrayflow.ArraysEqual(s1, s2))
		}
		fmt.Println()
	}
}
