package ir

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/synth"
)

// dfsReach is the reachability oracle: a DFS from every node over body
// edges, never leaving the exit node (its only successor is the back
// edge's target). reach[a][b] ⇔ a strictly precedes b.
func dfsReach(g *Graph) [][]bool {
	n := len(g.Nodes)
	reach := make([][]bool, n+1)
	for _, src := range g.Nodes {
		row := make([]bool, n+1)
		stack := []*Node{src}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if cur == g.Exit {
				continue
			}
			for _, s := range cur.Succs {
				if !row[s.ID] {
					row[s.ID] = true
					stack = append(stack, s)
				}
			}
		}
		reach[src.ID] = row
	}
	return reach
}

// rowBit reads bit i of a packed row.
func rowBit(row []uint64, i int) bool { return row[i>>6]&(1<<(uint(i)&63)) != 0 }

// checkReach compares Precedes, PrecedesRow and PrecededByRow with the DFS
// oracle on every node pair, including the unused bit 0 and the row tails
// past the last node ID, and checks that the entry precedes every other
// node (the DPs' reverse-postorder walk relies on it).
func checkReach(t *testing.T, name string, g *Graph) {
	t.Helper()
	want := dfsReach(g)
	n := len(g.Nodes)
	words := g.BitWords()
	for _, a := range g.Nodes {
		if a != g.Entry && !g.Precedes(g.Entry, a) {
			t.Errorf("%s: entry n%d does not precede n%d", name, g.Entry.ID, a.ID)
		}
		fwd, bwd := g.PrecedesRow(a.ID), g.PrecededByRow(a.ID)
		if len(fwd) != words || len(bwd) != words {
			t.Fatalf("%s: n%d rows hold %d/%d words, want %d", name, a.ID, len(fwd), len(bwd), words)
		}
		for id := 0; id < 64*words; id++ {
			inGraph := id >= 1 && id <= n
			if got, w := rowBit(fwd, id), inGraph && want[a.ID][id]; got != w {
				t.Errorf("%s: PrecedesRow(n%d) bit %d = %v, want %v", name, a.ID, id, got, w)
			}
			if got, w := rowBit(bwd, id), inGraph && want[id][a.ID]; got != w {
				t.Errorf("%s: PrecededByRow(n%d) bit %d = %v, want %v", name, a.ID, id, got, w)
			}
		}
		for _, b := range g.Nodes {
			if got := g.Precedes(a, b); got != want[a.ID][b.ID] {
				t.Errorf("%s: Precedes(n%d, n%d) = %v, want %v", name, a.ID, b.ID, got, want[a.ID][b.ID])
			}
		}
	}
}

// checkProgramLoops builds the graph of every loop of prog, inner loops
// included, and checks its reachability.
func checkProgramLoops(t *testing.T, name string, prog *ast.Program) int {
	t.Helper()
	loops := 0
	ast.Inspect(prog.Body, func(nd ast.Node) bool {
		loop, ok := nd.(*ast.DoLoop)
		if !ok {
			return true
		}
		g, err := Build(loop, nil)
		if err != nil {
			return true
		}
		loops++
		checkReach(t, fmt.Sprintf("%s loop %s#%d", name, loop.Var, loops), g)
		return true
	})
	return loops
}

// TestReachMatchesDFSOnExamples checks the reachability DPs against the
// per-node DFS on every loop of every parseable example program.
func TestReachMatchesDFSOnExamples(t *testing.T) {
	root := filepath.Join("..", "..", "examples")
	loops := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".loop") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		prog, err := parser.ParseBytes(src, nil)
		if err != nil {
			return nil // some examples are intentionally invalid
		}
		loops += checkProgramLoops(t, path, prog)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if loops == 0 {
		t.Fatal("no example loops found")
	}
}

// TestReachMatchesDFSOnSynth sweeps seeded synthetic loops with
// conditionals from 1 to 70 statements (past one 64-bit row word), plus
// hand-written shapes the generator does not produce: an empty body whose
// exit is its entry, empty and else branches, nested conditionals, and a
// summarized inner loop.
func TestReachMatchesDFSOnSynth(t *testing.T) {
	for stmts := 1; stmts <= 70; stmts++ {
		for seed := int64(1); seed <= 3; seed++ {
			prog := synth.Loop(synth.Params{Seed: seed, Stmts: stmts, Arrays: 4, MaxDist: 5, CondProb: 0.4})
			checkProgramLoops(t, fmt.Sprintf("synth stmts=%d seed=%d", stmts, seed), prog)
		}
	}
	shapes := map[string]string{
		"empty body": "do i = 1, N\nenddo\n",
		"empty then": "do i = 1, N\n  if c > 0 then\n  endif\n  A[i] := 1\nenddo\n",
		"if else":    "do i = 1, N\n  if c > 0 then\n    A[i] := 1\n  else\n    B[i] := 2\n    C[i] := 3\n  endif\n  D[i] := A[i] + B[i]\nenddo\n",
		"nested if":  "do i = 1, N\n  if c > 0 then\n    if d > 0 then\n      A[i] := 1\n    endif\n  else\n    if d > 1 then\n      B[i] := 2\n    else\n      C[i] := 3\n    endif\n  endif\nenddo\n",
		"cond last":  "do i = 1, N\n  A[i] := 1\n  if c > 0 then\n    B[i] := A[i-1]\n  endif\nenddo\n",
		"inner loop": "do i = 1, N\n  A[i] := 1\n  do j = 1, M\n    B[j] := A[i]\n  enddo\n  if c > 0 then\n    C[i] := B[i]\n  endif\nenddo\n",
	}
	for name, src := range shapes {
		checkProgramLoops(t, name, parser.MustParse(src))
	}
}
