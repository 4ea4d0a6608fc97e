// Command optdemo applies one of the paper's optimizations to a loop
// program, prints the transformed source, and measures the effect with the
// reference interpreter (dynamic array loads/stores) and, for register
// pipelining, the abstract machine (cycles).
//
// Usage:
//
//	optdemo -opt pipeline|stores|loads|unroll [-k 16] [-ub 1000] [file]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/ast"
	"repro/internal/experiments"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/regalloc"
	"repro/internal/sema"
	"repro/internal/tac"
)

func main() {
	optName := flag.String("opt", "pipeline",
		"optimization: pipeline (§4.1), stores (§4.2.1), loads (§4.2.2), unroll (§4.3)")
	k := flag.Int("k", 16, "register budget for pipeline allocation")
	flag.Parse()

	src, err := readSource(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := parser.Parse(src)
	if err != nil {
		fatal(fmt.Errorf("parse: %w", err))
	}
	prog, err = sema.Normalize(prog)
	if err != nil {
		fatal(err)
	}
	idx := firstLoop(prog)
	if idx < 0 {
		fatal(fmt.Errorf("no loop in program"))
	}

	fmt.Println("== original ==")
	fmt.Print(ast.ProgramString(prog))

	switch *optName {
	case "pipeline":
		runPipeline(prog, idx, *k)
	case "stores":
		res, err := opt.EliminateStores(prog, idx)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\n== after redundant store elimination ==")
		fmt.Print(ast.ProgramString(res.Prog))
		for _, r := range res.Removed {
			fmt.Println("removed:", r)
		}
		measure(prog, res.Prog)
	case "loads":
		res, err := opt.EliminateLoads(prog, idx)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\n== after redundant load elimination ==")
		fmt.Print(ast.ProgramString(res.Prog))
		fmt.Printf("replaced %d reuse points with %d temporaries\n", len(res.Replaced), res.Temps)
		measure(prog, res.Prog)
	case "unroll":
		res, err := opt.ControlledUnroll(prog, idx, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ncritical path l = %d, predictions %v, chosen factor %d\n",
			res.CriticalPath, res.Predicted[1:], res.Factor)
		fmt.Println("== after controlled unrolling ==")
		fmt.Print(ast.ProgramString(res.Prog))
		measure(prog, res.Prog)
	default:
		fatal(fmt.Errorf("unknown optimization %q", *optName))
	}
}

func runPipeline(prog *ast.Program, idx, k int) {
	loop := prog.Body[idx].(*ast.DoLoop)
	g := ir.Build(loop, nil)
	alloc := regalloc.Allocate(g, &regalloc.Options{K: k})
	fmt.Println("\n" + alloc.Report())
	hooks, err := alloc.GenOptions()
	if err != nil {
		fatal(err)
	}
	conv, err := tac.Gen(prog, nil)
	if err != nil {
		fatal(err)
	}
	pipe, err := tac.Gen(prog, hooks)
	if err != nil {
		fatal(err)
	}
	fmt.Println("== pipelined three-address code ==")
	fmt.Print(pipe.String())

	memA, memB := machine.NewMemory(), machine.NewMemory()
	resA, err := machine.Run(conv, memA, nil)
	if err != nil {
		fatal(err)
	}
	resB, err := machine.Run(pipe, memB, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%-14s %10s %10s %12s\n", "", "loads", "stores", "cycles")
	fmt.Printf("%-14s %10d %10d %12d\n", "conventional", resA.TotalLoads(), resA.TotalStores(), resA.Cycles)
	fmt.Printf("%-14s %10d %10d %12d\n", "pipelined", resB.TotalLoads(), resB.TotalStores(), resB.Cycles)
	fmt.Printf("semantics equal: %v\n", memA.Equal(memB))
}

// measure interprets both programs on a deterministic initial state and
// prints dynamic load/store counts per array.
func measure(before, after *ast.Program) {
	init := interp.NewState()
	// Give every scalar a nonzero value so conditions exercise both arms
	// across iterations; arrays get a simple ramp.
	info, err := sema.Check(before)
	if err == nil {
		for s := range info.Scalars {
			init.Scalars[s] = 3
		}
		for a := range info.Arrays {
			for i := int64(-4); i <= 1100; i++ {
				init.SetArray(a, i, i%17)
			}
		}
	}
	s1, st1, err := interp.Run(before, init, nil)
	if err != nil {
		fatal(err)
	}
	s2, st2, err := interp.Run(after, init, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%-10s %12s %12s %12s %12s\n", "array", "loads", "loads'", "stores", "stores'")
	names := map[string]bool{}
	for a := range st1.ArrayLoads {
		names[a] = true
	}
	for a := range st1.ArrayStores {
		names[a] = true
	}
	sorted := make([]string, 0, len(names))
	for a := range names {
		sorted = append(sorted, a)
	}
	sort.Strings(sorted)
	for _, a := range sorted {
		fmt.Printf("%-10s %12d %12d %12d %12d\n", a,
			st1.ArrayLoads[a], st2.ArrayLoads[a], st1.ArrayStores[a], st2.ArrayStores[a])
	}
	fmt.Printf("semantics equal: %v\n", interp.ArraysEqual(s1, s2))
}

func firstLoop(prog *ast.Program) int {
	for i, s := range prog.Body {
		if _, ok := s.(*ast.DoLoop); ok {
			return i
		}
	}
	return -1
}

func readSource(path string) (string, error) {
	if path != "" {
		b, err := os.ReadFile(path)
		return string(b), err
	}
	st, err := os.Stdin.Stat()
	if err == nil && (st.Mode()&os.ModeCharDevice) == 0 {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	fmt.Fprintln(os.Stderr, "(no input: optimizing the paper's Figure 5 loop)")
	return experiments.Fig5Source, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "optdemo:", err)
	os.Exit(1)
}
