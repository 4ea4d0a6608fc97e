// Register pipelining (paper §4.1, Figure 5): the loop
//
//	do i = 1, 1000
//	  A[i+2] := A[i] + X
//	enddo
//
// reloads from memory a value it computed two iterations earlier. The
// allocator assigns a three-stage register pipeline (r0, r1, r2); the use
// A[i] then reads stage r2, the in-loop loads disappear, and the abstract
// machine confirms identical memory contents at lower cycle cost — the
// shape of the paper's Figure 5 (iii).
package main

import (
	"fmt"
	"log"

	arrayflow "repro"
)

const src = `
do i = 1, 1000
  A[i+2] := A[i] + X
enddo
`

func main() {
	prog := arrayflow.MustParse(src)
	loop := prog.Body[0].(*arrayflow.Loop)
	g := arrayflow.BuildGraph(loop)

	alloc := arrayflow.AllocateRegisters(g, 16)
	fmt.Println(alloc.Report())

	hooks, err := alloc.GenOptions()
	if err != nil {
		log.Fatal(err)
	}
	conventional, err := arrayflow.Compile(prog, nil)
	if err != nil {
		log.Fatal(err)
	}
	pipelined, err := arrayflow.Compile(prog, hooks)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Pipelined three-address code:")
	fmt.Println(pipelined.String())

	memA, memB := arrayflow.NewMemory(), arrayflow.NewMemory()
	for i := int64(-2); i <= 2; i++ {
		memA.Set("A", i, 10+i)
		memB.Set("A", i, 10+i)
	}
	init := map[string]int64{"X": 1}
	resA, err := arrayflow.Execute(conventional, memA, init)
	if err != nil {
		log.Fatal(err)
	}
	resB, err := arrayflow.Execute(pipelined, memB, init)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-14s %10s %10s %12s\n", "", "loads A", "stores A", "cycles")
	fmt.Printf("%-14s %10d %10d %12d\n", "conventional", resA.Loads["A"], resA.Stores["A"], resA.Cycles)
	fmt.Printf("%-14s %10d %10d %12d\n", "pipelined", resB.Loads["A"], resB.Stores["A"], resB.Cycles)
	fmt.Println("memory contents equal:", memA.Equal(memB))
}
