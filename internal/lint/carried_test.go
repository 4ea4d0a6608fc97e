package lint_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/depend"
	"repro/internal/driver"
	"repro/internal/lint"
	"repro/internal/synth"
)

// dependenceGraphCarried counts a loop's carried edges the way the race
// analyzer once did: build internal/depend's graph and keep its edges at
// distance ≥ 1 that fit in a constant trip count.
func dependenceGraphCarried(la *driver.LoopAnalysis) int {
	g := la.Graph()
	n := 0
	for _, e := range depend.Build(g, la.Result("delta-reaching-refs"), lint.MaxBlockingDist).Edges {
		if e.Distance >= 1 && (!g.HasUB || e.Distance+1 <= g.UBConst) {
			n++
		}
	}
	return n
}

// TestCarriedCountMatchesDependenceGraph holds the race analyzer's direct
// carried-edge count to the dependence graph's on every loop of the
// examples, the bridge corpus and a sweep of synthetic programs.
func TestCarriedCountMatchesDependenceGraph(t *testing.T) {
	progs := bridgePrograms(t)
	for seed := int64(1); seed <= 12; seed++ {
		for _, ub := range []int64{0, 3, 12} {
			prog := synth.MultiLoopProgram(synth.MultiParams{Seed: 100 + seed, Loops: 4, StmtsPer: 8, NestEvery: 2, UB: ub})
			progs[fmt.Sprintf("sweep-multi-%d-%d", seed, ub)] = ast.ProgramString(prog)
			loop := synth.Loop(synth.Params{Seed: 100 + seed, Stmts: 10, Arrays: 2, MaxDist: 9, CondProb: 0.2, UB: ub})
			progs[fmt.Sprintf("sweep-loop-%d-%d", seed, ub)] = ast.ProgramString(loop)
		}
	}
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	slices.Sort(names)
	var loops, carried int
	for _, name := range names {
		pa := analyzeSource(t, progs[name])
		for _, la := range pa.Loops {
			want := dependenceGraphCarried(la)
			if got := lint.CarriedEdges(la); got != want {
				t.Errorf("%s: loop at %s: direct count %d, dependence graph %d", name, la.Loop.Pos(), got, want)
			}
			loops++
			carried += want
		}
	}
	if carried == 0 {
		t.Fatalf("%d loops carried no edge at all; the sweep needs some", loops)
	}
	t.Logf("%d loops, %d carried edges", loops, carried)
}
