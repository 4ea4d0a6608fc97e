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

// TestEdgesRiseInID pins the numbering the dataflow solver walks in. Build
// numbers the entry 1 and the exit last; every edge but the exit → entry
// back edge goes from a lower node ID to a higher one; and every node but
// the entry has a predecessor and every node but the exit a successor. So
// ID order, reversed for backward problems, is a topological order of the
// whole body that reaches every node, and a pass in ID order computes
// what a pass in reverse postorder computes. The solver relies on this and
// does not check it per solve. The property runs over the examples, the
// dataflow differential corpus, synth sweeps and synth.IfNest's nests.
func TestEdgesRiseInID(t *testing.T) {
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
	loops := 0
	for _, prog := range progs {
		ast.Inspect(prog.Body, func(n ast.Node) bool {
			loop, ok := n.(*ast.DoLoop)
			if !ok {
				return true
			}
			loops++
			g, err := ir.Build(loop, nil)
			if err != nil {
				return true
			}
			if err := risingOrder(g); err != nil {
				t.Fatalf("%v\n%s", err, ast.StmtString(loop, 0))
			}
			return true
		})
	}
	if loops < 1000 {
		t.Fatalf("checked %d loops, want at least 1000", loops)
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
