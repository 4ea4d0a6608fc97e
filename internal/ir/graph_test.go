package ir

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

const fig1 = `
do i = 1, UB
  C[i+2] := C[i] * 2
  B[2*i] := C[i] + X
  if C[i] == 0 then C[i] := B[i-1]
  B[i] := C[i+1]
enddo
`

func buildLoop(t *testing.T, src string) *Graph {
	t.Helper()
	prog := parser.MustParse(src)
	loop, ok := prog.Body[0].(*ast.DoLoop)
	if !ok {
		t.Fatalf("first stmt is %T, want DoLoop", prog.Body[0])
	}
	return Build(loop, nil)
}

func hasEdge(a, b *Node) bool {
	for _, s := range a.Succs {
		if s == b {
			return true
		}
	}
	return false
}

// TestFig3Shape checks that the Figure 1 loop produces exactly the flow
// graph of Figure 3: five nodes with 1→2, 2→3, 2→4, 3→4, 4→5, 5→1.
func TestFig3Shape(t *testing.T) {
	g := buildLoop(t, fig1)
	if len(g.Nodes) != 5 {
		t.Fatalf("nodes = %d, want 5\n%s", len(g.Nodes), g.Dump())
	}
	n := g.Nodes
	wantEdges := [][2]int{{1, 2}, {2, 3}, {2, 4}, {3, 4}, {4, 5}, {5, 1}}
	var total int
	for _, nd := range n {
		total += len(nd.Succs)
	}
	if total != len(wantEdges) {
		t.Fatalf("edge count = %d, want %d\n%s", total, len(wantEdges), g.Dump())
	}
	for _, e := range wantEdges {
		if !hasEdge(n[e[0]-1], n[e[1]-1]) {
			t.Errorf("missing edge n%d→n%d\n%s", e[0], e[1], g.Dump())
		}
	}
	if g.Exit != n[4] || g.Exit.Kind != KindExit {
		t.Errorf("exit node wrong: %v", g.Exit)
	}
	if g.Entry != n[0] {
		t.Errorf("entry node wrong: %v", g.Entry)
	}
	// The branch condition is folded into node 2 (paper's Figure 3).
	if n[1].Cond == nil {
		t.Errorf("condition not folded into node 2\n%s", g.Dump())
	}
	if n[1].Kind != KindStmt {
		t.Errorf("node 2 kind = %v, want stmt", n[1].Kind)
	}
}

// TestFig3Defs checks the paper's definition numbering: the four defs are
// C[i+2]@n1, B[2i]@n2, C[i]@n3, B[i]@n4.
func TestFig3Defs(t *testing.T) {
	g := buildLoop(t, fig1)
	var defs []*Ref
	for _, r := range g.Refs {
		if r.Kind == Def {
			defs = append(defs, r)
		}
	}
	if len(defs) != 4 {
		t.Fatalf("defs = %d, want 4", len(defs))
	}
	wantArrays := []string{"C", "B", "C", "B"}
	wantNodes := []int{1, 2, 3, 4}
	wantA := []int64{1, 2, 1, 1}
	wantB := []int64{2, 0, 0, 0}
	for k, d := range defs {
		if d.Array != wantArrays[k] || d.Node.ID != wantNodes[k] {
			t.Errorf("def %d = %s, want %s@n%d", k, d, wantArrays[k], wantNodes[k])
		}
		a, b, ok := d.Form.ConstCoeffs()
		if !ok || a != wantA[k] || b != wantB[k] {
			t.Errorf("def %d form = %s, want %d*i+%d", k, d.Form, wantA[k], wantB[k])
		}
	}
}

func TestUsesCollected(t *testing.T) {
	g := buildLoop(t, fig1)
	var uses []*Ref
	for _, r := range g.Refs {
		if r.Kind == Use {
			uses = append(uses, r)
		}
	}
	// C[i]@n1, C[i]@n2, C[i]@n2(cond), B[i-1]@n3, C[i+1]@n4.
	if len(uses) != 5 {
		t.Fatalf("uses = %d, want 5\n%s", len(uses), g.Dump())
	}
}

func TestPrPredicate(t *testing.T) {
	g := buildLoop(t, fig1)
	var defs []*Ref
	for _, r := range g.Refs {
		if r.Kind == Def && r.Array == "C" {
			defs = append(defs, r)
		}
	}
	d1 := defs[0] // C[i+2]@n1
	n3, n4 := g.Nodes[2], g.Nodes[3]
	if got := g.Pr(d1, n3); got != 0 {
		t.Errorf("pr(C[i+2], n3) = %d, want 0 (n1 precedes n3)", got)
	}
	if got := g.Pr(d1, n4); got != 0 {
		t.Errorf("pr(C[i+2], n4) = %d, want 0", got)
	}
	if got := g.Pr(d1, g.Nodes[0]); got != 1 {
		t.Errorf("pr(C[i+2], n1) = %d, want 1 (a node does not precede itself)", got)
	}
	// def C[i]@n3 does not precede n2.
	d3 := defs[1]
	if d3.Node.ID != 3 {
		t.Fatalf("unexpected def ordering")
	}
	if got := g.Pr(d3, g.Nodes[1]); got != 1 {
		t.Errorf("pr(C[i]@n3, n2) = %d, want 1", got)
	}
}

func TestIfElseDiamond(t *testing.T) {
	g := buildLoop(t, `
do i = 1, N
  A[i] := 0
  if x > 0 then
    A[i+1] := 1
  else
    A[i+2] := 2
  endif
  A[i+3] := 3
enddo
`)
	// Nodes: 1 A[i] (+cond), 2 then, 3 else, 4 join, 5 exit.
	if len(g.Nodes) != 5 {
		t.Fatalf("nodes = %d, want 5\n%s", len(g.Nodes), g.Dump())
	}
	n := g.Nodes
	for _, e := range [][2]int{{1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5}, {5, 1}} {
		if !hasEdge(n[e[0]-1], n[e[1]-1]) {
			t.Errorf("missing edge n%d→n%d\n%s", e[0], e[1], g.Dump())
		}
	}
	if hasEdge(n[0], n[3]) {
		t.Errorf("if-else must not have a bypass edge\n%s", g.Dump())
	}
}

func TestIfAtBlockStart(t *testing.T) {
	g := buildLoop(t, `
do i = 1, N
  if x > 0 then
    A[i] := 1
  endif
enddo
`)
	// Nodes: 1 cond, 2 then, 3 exit.
	if len(g.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3\n%s", len(g.Nodes), g.Dump())
	}
	if g.Nodes[0].Kind != KindCond {
		t.Errorf("node 1 kind = %v, want cond", g.Nodes[0].Kind)
	}
	n := g.Nodes
	for _, e := range [][2]int{{1, 2}, {1, 3}, {2, 3}, {3, 1}} {
		if !hasEdge(n[e[0]-1], n[e[1]-1]) {
			t.Errorf("missing edge n%d→n%d\n%s", e[0], e[1], g.Dump())
		}
	}
}

func TestNestedIf(t *testing.T) {
	g := buildLoop(t, `
do i = 1, N
  A[i] := 0
  if x > 0 then
    if y > 0 then
      A[i+1] := 1
    endif
  endif
  A[i+2] := 2
enddo
`)
	// Nodes: 1 A[i](+cond x), 2 cond y, 3 A[i+1], 4 A[i+2], 5 exit.
	if len(g.Nodes) != 5 {
		t.Fatalf("nodes = %d, want 5\n%s", len(g.Nodes), g.Dump())
	}
	if g.Nodes[1].Kind != KindCond {
		t.Errorf("inner if should be its own cond node (outer then-branch starts a block)\n%s", g.Dump())
	}
}

// TestDeclarationArmFallsThrough: a branch of only declarations lays out
// no node, so control falls through it from the if's site to the
// statement after the if, as it does through an absent else. A graph
// without that edge claims the other branch's stores on every path.
func TestDeclarationArmFallsThrough(t *testing.T) {
	for _, arms := range [][2]string{{"dim X[3]", "A[i] := 1"}, {"A[i] := 1", "dim X[3]"}} {
		g := buildLoop(t, fmt.Sprintf(`
do i = 1, N
  if x > 0 then
    %s
  else
    %s
  endif
  B[i] := A[i]
enddo
`, arms[0], arms[1]))
		// Nodes: 1 cond, 2 A[i], 3 B[i], 4 exit.
		n := g.Nodes
		for _, e := range [][2]int{{1, 2}, {1, 3}, {2, 3}, {3, 4}} {
			if !hasEdge(n[e[0]-1], n[e[1]-1]) {
				t.Errorf("missing edge n%d→n%d\n%s", e[0], e[1], g.Dump())
			}
		}
	}
}

func TestEmptyBody(t *testing.T) {
	g := buildLoop(t, "do i = 1, N\nenddo")
	if len(g.Nodes) != 1 || g.Entry != g.Exit {
		t.Fatalf("empty loop graph wrong\n%s", g.Dump())
	}
}

func TestSummaryNode(t *testing.T) {
	g := buildLoop(t, `
do j = 1, M
  X[j] := 0
  do i = 1, N
    X[i] := Y[j+1]
    Y[2*j] := 1
  enddo
  Z[j] := X[j]
enddo
`)
	// Nodes: 1 X[j]:=0, 2 summary, 3 Z[j]:=X[j], 4 exit.
	if len(g.Nodes) != 4 {
		t.Fatalf("nodes = %d, want 4\n%s", len(g.Nodes), g.Dump())
	}
	sum := g.Nodes[1]
	if sum.Kind != KindSummary {
		t.Fatalf("node 2 kind = %v, want summary", sum.Kind)
	}
	// Summary refs: def X[i] (FromInner), use Y[j+1], def Y[2j].
	if len(sum.Refs) != 3 {
		t.Fatalf("summary refs = %d, want 3\n%s", len(sum.Refs), g.Dump())
	}
	var sawInnerDef, sawOuterUse, sawOuterDef bool
	for _, r := range sum.Refs {
		switch {
		case r.Array == "X" && r.Kind == Def:
			sawInnerDef = true
			if !r.FromInner {
				t.Errorf("X[i] inside inner loop must be FromInner")
			}
			if r.Affine {
				t.Errorf("X[i] must not be affine wrt j")
			}
		case r.Array == "Y" && r.Kind == Use:
			sawOuterUse = true
			if r.FromInner || !r.Affine {
				t.Errorf("Y[j+1] should be an affine outer-IV ref: %v", r)
			}
		case r.Array == "Y" && r.Kind == Def:
			sawOuterDef = true
			a, b, ok := r.Form.ConstCoeffs()
			if !ok || a != 2 || b != 0 {
				t.Errorf("Y[2j] form = %s", r.Form)
			}
		}
	}
	if !sawInnerDef || !sawOuterUse || !sawOuterDef {
		t.Errorf("summary refs incomplete\n%s", g.Dump())
	}
	if sum.Loop == nil || sum.Loop.Var != "i" {
		t.Errorf("summary node does not carry the inner loop over i")
	}
}

func TestUBConst(t *testing.T) {
	g := buildLoop(t, "do i = 1, 1000\n A[i] := 0\nenddo")
	if !g.HasUB || g.UBConst != 1000 {
		t.Fatalf("UB = (%d,%v), want (1000,true)", g.UBConst, g.HasUB)
	}
	g2 := buildLoop(t, "do i = 1, N\n A[i] := 0\nenddo")
	if g2.HasUB {
		t.Fatal("symbolic UB must not be constant")
	}
}

func TestDumpMentionsEverything(t *testing.T) {
	g := buildLoop(t, fig1)
	d := g.Dump()
	for _, want := range []string{"C[i + 2]", "B[2 * i]", "exit", "n5"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
}

func TestDominators(t *testing.T) {
	g := buildLoop(t, `
do i = 1, N
  A[i] := 0
  if x > 0 then
    A[i+1] := 1
  else
    A[i+2] := 2
  endif
  A[i+3] := 3
enddo
`)
	// Nodes: 1 head(+cond), 2 then, 3 else, 4 join, 5 exit.
	n := g.Nodes
	if !g.Dominates(n[0], n[3]) {
		t.Error("head must dominate the join")
	}
	if g.Dominates(n[1], n[3]) || g.Dominates(n[2], n[3]) {
		t.Error("branch arms must not dominate the join")
	}
	if !g.Dominates(n[0], n[1]) || !g.Dominates(n[0], n[2]) {
		t.Error("head must dominate both arms")
	}
	if !g.Dominates(n[3], n[4]) {
		t.Error("join must dominate the exit")
	}
	if g.Dominates(n[0], n[0]) {
		t.Error("dominance is strict")
	}
	if g.Dominates(n[3], n[0]) {
		t.Error("no backwards dominance over body edges")
	}
}

func TestDominatorsStraightLine(t *testing.T) {
	g := buildLoop(t, fig1)
	n := g.Nodes
	// n2 dominates n3 and n4; n3 does not dominate n4 (bypass edge 2→4).
	if !g.Dominates(n[1], n[2]) || !g.Dominates(n[1], n[3]) {
		t.Error("n2 must dominate n3 and n4")
	}
	if g.Dominates(n[2], n[3]) {
		t.Error("n3 must not dominate n4 (conditional)")
	}
	if !g.Dominates(n[0], n[4]) {
		t.Error("entry dominates exit")
	}
}

func TestMultiDimRefNonAffineMarking(t *testing.T) {
	g := buildLoop(t, "do i = 1, N\n A[B[i]] := A[i*i]\nenddo")
	for _, r := range g.Refs {
		if r.Array == "A" && r.Affine {
			t.Errorf("ref %s should be non-affine", r)
		}
	}
}
