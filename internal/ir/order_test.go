package ir_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/synth"
)

// corpusLoops returns every loop, inner loops included, of the corpus the
// graph-shape properties run over: the examples, the dataflow differential
// corpus, synth sweeps and 1,000 synth.IfNest nests.
func corpusLoops(t *testing.T) []*ast.DoLoop {
	t.Helper()
	var progs []*ast.Program
	for _, dir := range []string{filepath.Join("..", "..", "examples"), filepath.Join("..", "dataflow", "testdata", "differential")} {
		paths, _ := filepath.Glob(filepath.Join(dir, "*.loop"))
		if len(paths) == 0 {
			t.Fatalf("no programs in %s", dir)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if prog, err := parser.ParseBytes(src, nil); err == nil {
				progs = append(progs, prog) // some examples are intentionally invalid
			}
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		progs = append(progs,
			synth.Loop(synth.Params{Seed: seed, Stmts: int(seed%16) + 1, Arrays: int(seed%4) + 1, CondProb: float64(seed%5) / 4}),
			synth.MultiLoopProgram(synth.MultiParams{Seed: seed, Loops: 3, NestEvery: 2}))
	}
	progs = append(progs, synth.WideLoop(64, 0), synth.ChainLoop(8, 1, 0))
	for seed := int64(1); seed <= 1000; seed++ {
		progs = append(progs, synth.IfNest(seed))
	}
	var loops []*ast.DoLoop
	for _, prog := range progs {
		ast.Inspect(prog.Body, func(n ast.Node) bool {
			if loop, ok := n.(*ast.DoLoop); ok {
				loops = append(loops, loop)
			}
			return true
		})
	}
	if len(loops) < 1000 {
		t.Fatalf("corpus holds %d loops, want at least 1000", len(loops))
	}
	return loops
}

// TestEdgesRiseInID pins the numbering the dataflow solver walks in and
// Build's one-pass relations rest on. Build numbers the entry 1 and the
// exit last; every edge but the exit → entry back edge goes from a lower
// node ID to a higher one; and every node but the entry has a predecessor
// and every node but the exit a successor. So ID order, reversed for
// backward problems, is a topological order of the whole body that
// reaches every node, and a pass in ID order computes what a pass in
// reverse postorder computes. The solver relies on this and does not
// check it per solve.
func TestEdgesRiseInID(t *testing.T) {
	for _, loop := range corpusLoops(t) {
		if err := risingOrder(ir.Build(loop, nil)); err != nil {
			t.Fatalf("%v\n%s", err, ast.StmtString(loop, 0))
		}
	}
}

// risingOrder reports the first way g's numbering breaks the property
// TestEdgesRiseInID pins.
func risingOrder(g *ir.Graph) error {
	if g.Entry.ID != 1 || g.Exit.ID != len(g.Nodes) {
		return fmt.Errorf("entry n%d and exit n%d of %d nodes", g.Entry.ID, g.Exit.ID, len(g.Nodes))
	}
	for _, nd := range g.Nodes {
		if nd != g.Entry && len(nd.Preds) == 0 {
			return fmt.Errorf("n%d has no predecessor\n%s", nd.ID, g.Dump())
		}
		if nd != g.Exit && len(nd.Succs) == 0 {
			return fmt.Errorf("n%d has no successor\n%s", nd.ID, g.Dump())
		}
		for _, s := range nd.Succs {
			if s.ID <= nd.ID && (nd != g.Exit || s != g.Entry) {
				return fmt.Errorf("edge n%d → n%d falls\n%s", nd.ID, s.ID, g.Dump())
			}
		}
	}
	return nil
}

// TestDominatesMatchesRemoval holds Dominates to its definition on every
// node pair of the corpus: a dominates b exactly when a ≠ b and b cannot
// be reached from the entry over body edges once a is removed.
func TestDominatesMatchesRemoval(t *testing.T) {
	pairs := 0
	for _, loop := range corpusLoops(t) {
		g := ir.Build(loop, nil)
		for _, a := range g.Nodes {
			reached := reachedWithout(g, a)
			for _, b := range g.Nodes {
				if got, want := g.Dominates(a, b), a != b && !reached[b.ID]; got != want {
					t.Fatalf("Dominates(n%d, n%d) = %v, want %v\n%s", a.ID, b.ID, got, want, g.Dump())
				}
				pairs++
			}
		}
	}
	if pairs < 100000 {
		t.Fatalf("checked %d node pairs, want at least 100000", pairs)
	}
	t.Logf("%d node pairs", pairs)
}

// reachedWithout marks, by node ID, the nodes a DFS from g's entry reaches
// over body edges when it may not enter removed; with the entry removed it
// reaches nothing.
func reachedWithout(g *ir.Graph, removed *ir.Node) []bool {
	reached := make([]bool, len(g.Nodes)+1)
	if removed == g.Entry {
		return reached
	}
	reached[g.Entry.ID] = true
	stack := []*ir.Node{g.Entry}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == g.Exit {
			continue // its one successor is the back edge's target
		}
		for _, s := range cur.Succs {
			if s != removed && !reached[s.ID] {
				reached[s.ID] = true
				stack = append(stack, s)
			}
		}
	}
	return reached
}
