package regalloc

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/synth"
	"repro/internal/tac"
	"repro/internal/tacopt"
)

// TestDifferentialPipelining compiles random structured loops with and
// without register pipelines and executes both on the abstract machine:
// final memory must match, and total loads must never increase.
func TestDifferentialPipelining(t *testing.T) {
	applied := 0
	for seed := int64(1); seed <= 120; seed++ {
		prog := synth.Loop(synth.Params{
			Seed: seed, Stmts: 6, Arrays: 3, MaxDist: 3, CondProb: 0.3, UB: 30,
		})
		loop := prog.Body[0].(*ast.DoLoop)
		g := ir.Build(loop, nil)
		alloc := Allocate(g, &Options{K: 24})
		if len(alloc.AllocatedPipelines()) == 0 {
			continue
		}
		applied++
		hooks, err := alloc.GenOptions()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		conv, err := tac.Gen(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := tac.Gen(prog, hooks)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(seed * 7))
		memA, memB := machine.NewMemory(), machine.NewMemory()
		for a := 0; a < 3; a++ {
			name := []string{"A0", "A1", "A2"}[a]
			for i := int64(-5); i <= 40; i++ {
				v := rng.Int63n(200) - 100
				memA.Set(name, i, v)
				memB.Set(name, i, v)
			}
		}
		initRegs := map[string]int64{
			"x0": rng.Int63n(9) - 4, "x1": rng.Int63n(9) - 4, "x2": rng.Int63n(9) - 4,
			"c0": rng.Int63n(3) - 1, "c1": rng.Int63n(3) - 1,
			"c2": rng.Int63n(3) - 1, "c3": rng.Int63n(3) - 1,
		}
		resA, err := machine.Run(conv, memA, &machine.Options{InitRegs: initRegs})
		if err != nil {
			t.Fatalf("seed %d conventional: %v", seed, err)
		}
		resB, err := machine.Run(pipe, memB, &machine.Options{InitRegs: initRegs})
		if err != nil {
			t.Fatalf("seed %d pipelined: %v\n%s\n%s", seed, err, alloc.Report(), pipe)
		}
		if !memA.Equal(memB) {
			t.Fatalf("seed %d: pipelined semantics diverge\nprogram:\n%s\n%s",
				seed, ast.ProgramString(prog), alloc.Report())
		}
		if resB.TotalLoads() > resA.TotalLoads() {
			t.Errorf("seed %d: pipelining increased loads %d -> %d",
				seed, resA.TotalLoads(), resB.TotalLoads())
		}
	}
	if applied < 30 {
		t.Fatalf("only %d seeds allocated pipelines — generator too tame", applied)
	}
}

// TestDifferentialPipeliningPlusLocalOpt stacks the classical optimizer on
// pipelined code: still correct, never worse.
func TestDifferentialPipeliningPlusLocalOpt(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		prog := synth.Loop(synth.Params{
			Seed: seed + 900, Stmts: 5, Arrays: 2, MaxDist: 3, CondProb: 0.25, UB: 25,
		})
		loop := prog.Body[0].(*ast.DoLoop)
		g := ir.Build(loop, nil)
		alloc := Allocate(g, &Options{K: 24})
		hooks, err := alloc.GenOptions()
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := tac.Gen(prog, hooks)
		if err != nil {
			t.Fatal(err)
		}
		opt, _ := tacopt.Optimize(pipe)

		rng := rand.New(rand.NewSource(seed))
		memA, memB := machine.NewMemory(), machine.NewMemory()
		for _, name := range []string{"A0", "A1"} {
			for i := int64(-5); i <= 35; i++ {
				v := rng.Int63n(100)
				memA.Set(name, i, v)
				memB.Set(name, i, v)
			}
		}
		initRegs := map[string]int64{"x0": 1, "x1": 2, "x2": 3, "c0": 1, "c1": 0, "c2": 1, "c3": 0}
		resA, err := machine.Run(pipe, memA, &machine.Options{InitRegs: initRegs})
		if err != nil {
			t.Fatal(err)
		}
		resB, err := machine.Run(opt, memB, &machine.Options{InitRegs: initRegs})
		if err != nil {
			t.Fatalf("seed %d optimized pipelined: %v", seed, err)
		}
		if !memA.Equal(memB) {
			t.Fatalf("seed %d: local optimization broke pipelined code", seed)
		}
		if resB.Cycles > resA.Cycles {
			t.Errorf("seed %d: local optimization made pipelined code slower: %d -> %d",
				seed, resA.Cycles, resB.Cycles)
		}
	}
}
