package dataflow

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/lattice"
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

func buildLoop(t *testing.T, src string) *ir.Graph {
	t.Helper()
	prog := parser.MustParse(src)
	loop := prog.Body[0].(*ast.DoLoop)
	g := ir.Build(loop, nil)
	return g
}

func mustReach() *Spec {
	return &Spec{
		Name: "must-reaching-defs",
		Gen:  func(r *ir.Ref) bool { return r.Kind == ir.Def },
		Kill: func(r *ir.Ref) bool { return r.Kind == ir.Def },
	}
}

// tup builds a tuple from shorthand: -1 = ⊥, -2 = ⊤, n ≥ 0 = D(n).
func tup(vals ...int64) lattice.Tuple {
	out := make(lattice.Tuple, len(vals))
	for i, v := range vals {
		switch v {
		case -1:
			out[i] = lattice.None()
		case -2:
			out[i] = lattice.All()
		default:
			out[i] = lattice.D(v)
		}
	}
	return out
}

func checkTuple(t *testing.T, label string, got, want lattice.Tuple) {
	t.Helper()
	if !got.Eq(want) {
		t.Errorf("%s = %s, want %s", label, got, want)
	}
}

// TestTable1InitPass reproduces Table 1 (i) of the paper exactly.
func TestTable1InitPass(t *testing.T) {
	g := buildLoop(t, fig1)
	res := Solve(g, mustReach(), &Options{CollectTrace: true})

	if len(res.Classes) != 4 {
		t.Fatalf("classes = %d, want 4 (C[i+2], B[2i], C[i], B[i])", len(res.Classes))
	}
	// Class order must match the paper's numbering by node.
	wantNames := []string{"C", "B", "C", "B"}
	for k, c := range res.Classes {
		if c.Array != wantNames[k] || c.Members[0].Node.ID != k+1 {
			t.Fatalf("class %d = %s (node %d), want %s at node %d",
				k, c, c.Members[0].Node.ID, wantNames[k], k+1)
		}
	}

	// Table 1 (i): initialization pass, tuples (C[i+2], B[2i], C[i], B[i]).
	wantIn := []lattice.Tuple{nil,
		tup(-1, -1, -1, -1), // IN[1]
		tup(-2, -1, -1, -1), // IN[2]
		tup(-2, -2, -1, -1), // IN[3]
		tup(-2, -2, -1, -1), // IN[4]
		tup(-2, -2, -1, -2), // IN[5]
	}
	wantOut := []lattice.Tuple{nil,
		tup(-2, -1, -1, -1), // OUT[1]
		tup(-2, -2, -1, -1), // OUT[2]
		tup(-2, -2, -2, -1), // OUT[3]
		tup(-2, -2, -1, -2), // OUT[4]
		tup(-2, -2, -1, -2), // OUT[5]
	}
	for id := 1; id <= 5; id++ {
		checkTuple(t, "init IN", res.InitIn()[id], wantIn[id])
		checkTuple(t, "init OUT", res.InitOut()[id], wantOut[id])
	}
}

// TestTable1Iteration reproduces Table 1 (ii): the two iteration passes.
func TestTable1Iteration(t *testing.T) {
	g := buildLoop(t, fig1)
	res := Solve(g, mustReach(), &Options{CollectTrace: true})

	if len(res.Trace) < 2 {
		t.Fatalf("need ≥ 2 traced passes, got %d", len(res.Trace))
	}

	// Pass 1.
	p1 := res.Trace[0]
	wantIn1 := []lattice.Tuple{nil,
		tup(-2, -2, -1, -2), // IN[1]
		tup(-2, -2, -1, -2), // IN[2]
		tup(-2, -2, -1, -2), // IN[3]
		tup(1, -2, -1, -2),  // IN[4]
		tup(1, 0, -1, -2),   // IN[5]
	}
	wantOut1 := []lattice.Tuple{nil,
		tup(-2, -2, -1, -2), // OUT[1]
		tup(-2, -2, -1, -2), // OUT[2]
		tup(1, -2, 0, -2),   // OUT[3]
		tup(1, 0, -1, -2),   // OUT[4]
		tup(2, 1, -1, -2),   // OUT[5]
	}
	for id := 1; id <= 5; id++ {
		checkTuple(t, "pass1 IN", p1.In[id], wantIn1[id])
		checkTuple(t, "pass1 OUT", p1.Out[id], wantOut1[id])
	}

	// Pass 2 — the fixed point.
	p2 := res.Trace[1]
	wantIn2 := []lattice.Tuple{nil,
		tup(2, 1, -1, -2), // IN[1]
		tup(2, 1, -1, -2), // IN[2]
		tup(2, 1, -1, -2), // IN[3]
		tup(1, 1, -1, -2), // IN[4]
		tup(1, 0, -1, -2), // IN[5]
	}
	wantOut2 := []lattice.Tuple{nil,
		tup(2, 1, -1, -2), // OUT[1]
		tup(2, 1, -1, -2), // OUT[2]
		tup(1, 1, 0, -2),  // OUT[3]
		tup(1, 0, -1, -2), // OUT[4]
		tup(2, 1, -1, -2), // OUT[5]
	}
	for id := 1; id <= 5; id++ {
		checkTuple(t, "pass2 IN", p2.In[id], wantIn2[id])
		checkTuple(t, "pass2 OUT", p2.Out[id], wantOut2[id])
	}

	// The fixed point values equal the pass-2 snapshot.
	for id := 1; id <= 5; id++ {
		nd := g.Nodes[id-1]
		for _, c := range res.Classes {
			checkTuple(t, "fixpoint IN", lattice.Tuple{res.InAt(nd, c)}, wantIn2[id][c.Index:c.Index+1])
			checkTuple(t, "fixpoint OUT", lattice.Tuple{res.OutAt(nd, c)}, wantOut2[id][c.Index:c.Index+1])
		}
	}
}

// TestThreePassClaim verifies the paper's practicality claim: the fixed
// point of a must-problem is reached with the initialization pass plus two
// iteration passes (a third pass only confirms stability).
func TestThreePassClaim(t *testing.T) {
	g := buildLoop(t, fig1)
	res := Solve(g, mustReach(), nil)
	if res.ChangedPasses > 2 {
		t.Errorf("changed passes = %d, want ≤ 2", res.ChangedPasses)
	}
	if res.Passes > 3 {
		t.Errorf("total passes = %d, want ≤ 3", res.Passes)
	}
}

// TestMayTwoPassClaim verifies §3.3: may-problems need no initialization
// pass and converge within two passes.
func TestMayTwoPassClaim(t *testing.T) {
	g := buildLoop(t, fig1)
	spec := &Spec{
		Name: "delta-reaching-refs",
		May:  true,
		Gen:  func(r *ir.Ref) bool { return true },
		Kill: func(r *ir.Ref) bool { return r.Kind == ir.Def },
	}
	res := Solve(g, spec, nil)
	if res.ChangedPasses > 1 {
		t.Errorf("changed passes = %d, want ≤ 1 (2 passes incl. confirmation)", res.ChangedPasses)
	}
	if res.InitIn() != nil {
		t.Error("may-problem must not run an initialization pass")
	}
}

// TestConditionalKillsDistanceZero checks that a definition inside a branch
// never must-reach the join with distance 0 (flow-sensitivity).
func TestConditionalKillsDistanceZero(t *testing.T) {
	g := buildLoop(t, `
do i = 1, N
  if c > 0 then
    A[i] := 1
  endif
  B[i] := A[i]
enddo
`)
	res := Solve(g, mustReach(), nil)
	var aClass *Class
	for _, c := range res.Classes {
		if c.Array == "A" {
			aClass = c
		}
	}
	if aClass == nil {
		t.Fatal("class A[i] missing")
	}
	// Join node is the B[i] assignment.
	var join *ir.Node
	for _, nd := range g.Nodes {
		if nd.Kind == ir.KindStmt && nd.Assign != nil {
			if lhs, ok := nd.Assign.LHS.(*ast.ArrayRef); ok && lhs.Name == "B" {
				join = nd
			}
		}
	}
	if join == nil {
		t.Fatal("join node missing")
	}
	if got := res.InAt(join, aClass); !got.IsNone() {
		t.Errorf("IN[join, A[i]] = %s, want ⊥ (conditional definition)", got)
	}
}

// TestUnconditionalReachesAll checks the complementary case.
func TestUnconditionalReachesAll(t *testing.T) {
	g := buildLoop(t, `
do i = 1, N
  A[i] := 1
  B[i] := A[i]
enddo
`)
	res := Solve(g, mustReach(), nil)
	c := res.Classes[0]
	join := g.Nodes[1]
	got := res.InAt(join, c)
	if !got.IsAll() {
		t.Errorf("IN[n2, A[i]] = %s, want ⊤ (never killed)", got)
	}
}

// TestSelfKillTextuallyIdentical: two identical defs in sequence — the
// second kills the first's older instances at distance 0 relative to
// itself (k ≡ 0 = pr): nothing from previous iterations survives past it.
func TestSelfKillSameSubscriptDistinctNodes(t *testing.T) {
	g := buildLoop(t, `
do i = 1, N
  A[i] := 1
  A[i] := 2
enddo
`)
	res := Solve(g, mustReach(), nil)
	// Both defs share one class (same array, same form).
	if len(res.Classes) != 1 {
		t.Fatalf("classes = %d, want 1 (textually identical subscripts)", len(res.Classes))
	}
	c := res.Classes[0]
	if len(c.Members) != 2 {
		t.Fatalf("members = %d, want 2", len(c.Members))
	}
	// A[i] at node 2 kills nothing of its own class (generate dominates).
	if got := res.OutAt(g.Nodes[1], c); !got.Covers(0) {
		t.Errorf("OUT[n2] = %s, must cover distance 0", got)
	}
}

// TestExitIncrement checks ++ semantics across the back edge.
func TestExitIncrement(t *testing.T) {
	g := buildLoop(t, `
do i = 1, N
  A[i] := 1
enddo
`)
	res := Solve(g, mustReach(), nil)
	c := res.Classes[0]
	// OUT[exit] = IN[exit]++; with a single never-killed def the entry IN
	// accumulates to ⊤.
	if got := res.InAt(g.Entry, c); !got.IsAll() {
		t.Errorf("IN[entry] = %s, want ⊤", got)
	}
}

// TestUBClamp checks that with a known constant bound, distances collapse
// to ⊤ at UB−1.
func TestUBClamp(t *testing.T) {
	g := buildLoop(t, `
do i = 1, 3
  A[i+10] := A[i]
enddo
`)
	res := Solve(g, mustReach(), nil)
	c := res.Classes[0]
	// The def A[i+10] never conflicts with itself; distances grow per
	// iteration but clamp at UB−1=2 → ⊤.
	got := res.InAt(g.Entry, c)
	if !got.IsAll() {
		t.Errorf("IN[entry] = %s, want ⊤ via clamping", got)
	}
}

// TestSkipInitPassAblation shows the initialization pass is load-bearing
// for *soundness*, not just speed: iterating from a naive ⊤ start converges
// to a fixed point above the meet-over-paths solution on conditionally
// generated classes. In Figure 1, C[i] is defined only in a branch, so its
// must-reaching value at every node is ⊥ — but with a ⊤ start, no flow
// function ever lowers it (C[i] has no killers in the loop) and the solver
// stabilizes at the unsafe ⊤. The paper's initialization pass seeds ⊥ along
// paths that bypass the generator, which the meet then propagates.
func TestSkipInitPassAblation(t *testing.T) {
	g := buildLoop(t, fig1)
	base := Solve(g, mustReach(), nil)
	noInit := Solve(g, mustReach(), &Options{SkipInitPass: true})
	ci := base.Classes[2] // C[i], the conditional definition
	if got := base.InAt(g.Nodes[3], ci); !got.IsNone() {
		t.Fatalf("with init pass: IN[n4, C[i]] = %s, want ⊥", got)
	}
	if got := noInit.InAt(g.Nodes[3], ci); !got.IsAll() {
		t.Fatalf("without init pass: IN[n4, C[i]] = %s, want the unsafe ⊤", got)
	}
	// The unconditional classes still agree.
	for _, c := range []*Class{base.Classes[0], base.Classes[1], base.Classes[3]} {
		for _, nd := range g.Nodes {
			if !base.InAt(nd, c).Eq(noInit.InAt(nd, c)) {
				t.Errorf("class %s IN[%d] differs: %s vs %s",
					c, nd.ID, base.InAt(nd, c), noInit.InAt(nd, c))
			}
		}
	}
}

// TestMayTopStartDiverges is the §3.3 ablation: a may-problem started at ⊤
// ("no instance") climbs the distance chain one pass per loop iteration —
// with an unknown bound it never converges within any fixed pass budget,
// which is exactly why the paper prescribes the ⊥ start. The correct start
// reaches the same greatest fixed point in ≤ 2 changing passes.
func TestMayTopStartDiverges(t *testing.T) {
	g := buildLoop(t, `
do i = 1, N
  A[i] := A[i-4] + 1
enddo
`)
	spec := &Spec{
		Name: "may-reaching",
		May:  true,
		Gen:  func(r *ir.Ref) bool { return true },
		Kill: func(r *ir.Ref) bool { return r.Kind == ir.Def },
	}
	good := Solve(g, spec, nil)
	if good.ChangedPasses > 2 {
		t.Fatalf("correct start: changing passes = %d", good.ChangedPasses)
	}
	bad := Solve(g, spec, &Options{MayTopStart: true, MaxPasses: 30})
	if bad.ChangedPasses < 25 {
		t.Fatalf("⊤ start should keep climbing (one distance per pass): changed %d of 30 passes",
			bad.ChangedPasses)
	}
	// With a *known* bound the climb terminates at UB−1 — slowly.
	gb := buildLoop(t, `
do i = 1, 12
  A[i] := A[i-4] + 1
enddo
`)
	badBounded := Solve(gb, spec, &Options{MayTopStart: true, MaxPasses: 64})
	if badBounded.ChangedPasses <= 2 {
		t.Fatalf("bounded ⊤ start converged suspiciously fast: %d", badBounded.ChangedPasses)
	}
	goodBounded := Solve(gb, spec, nil)
	if goodBounded.ChangedPasses > 2 {
		t.Fatalf("bounded correct start: %d changing passes", goodBounded.ChangedPasses)
	}
}

// TestBackwardBusyStores solves δ-busy stores on the Figure 6 loop and
// checks the redundancy fact directly on tuples.
func TestBackwardBusyStores(t *testing.T) {
	g := buildLoop(t, `
do i = 1, 1000
  A[i] := x
  if c > 0 then
    A[i+1] := y
  endif
enddo
`)
	spec := &Spec{
		Name:     "delta-busy-stores",
		Backward: true,
		Gen:      func(r *ir.Ref) bool { return r.Kind == ir.Def },
		Kill:     func(r *ir.Ref) bool { return r.Kind == ir.Use },
	}
	res := Solve(g, spec, nil)
	if len(res.Classes) != 2 {
		t.Fatalf("classes = %d, want 2", len(res.Classes))
	}
	aI := res.Classes[0]   // A[i]
	aI1 := res.Classes[1]  // A[i+1]
	condNode := g.Nodes[1] // the conditional store's node
	if condNode.Kind != ir.KindStmt {
		t.Fatalf("unexpected node layout\n%s", g.Dump())
	}
	// A[i] is busy at the conditional store with unbounded distance: it
	// executes unconditionally every following iteration.
	if got := res.InAt(condNode, aI); !got.Covers(1) {
		t.Errorf("IN[n2, A[i]] = %s, must cover distance 1", got)
	}
	// A[i+1] is conditional: never busy along all paths at node 1.
	if got := res.InAt(g.Nodes[0], aI1); !got.IsNone() {
		t.Errorf("IN[n1, A[i+1]] = %s, want ⊥", got)
	}
	if res.ChangedPasses > 2 {
		t.Errorf("backward must-problem: changed passes = %d, want ≤ 2", res.ChangedPasses)
	}
}

// TestMayProblemPreservesUnlessDefiniteKill: in a may-problem a varying-
// distance kill preserves everything.
func TestMayProblemPreservesUnlessDefiniteKill(t *testing.T) {
	g := buildLoop(t, `
do i = 1, N
  B[2*i] := 1
  B[i] := 2
enddo
`)
	spec := &Spec{
		Name: "may-reaching",
		May:  true,
		Gen:  func(r *ir.Ref) bool { return r.Kind == ir.Def },
		Kill: func(r *ir.Ref) bool { return r.Kind == ir.Def },
	}
	res := Solve(g, spec, nil)
	b2i := res.Classes[0]
	// B[i] kills B[2i] at varying distances: not definite → all instances
	// may reach.
	if got := res.InAt(g.Entry, b2i); !got.IsAll() {
		t.Errorf("IN[entry, B[2i]] = %s, want ⊤ (no definite kill)", got)
	}
}

// TestMayDefiniteKill: B[i-1] kills B[i] at exactly distance 1 every
// iteration: a definite kill caps the may-information at 0.
func TestMayDefiniteKill(t *testing.T) {
	g := buildLoop(t, `
do i = 1, N
  B[i] := 1
  B[i-1] := 2
enddo
`)
	spec := &Spec{
		Name: "may-reaching",
		May:  true,
		Gen:  func(r *ir.Ref) bool { return r.Kind == ir.Def },
		Kill: func(r *ir.Ref) bool { return r.Kind == ir.Def },
	}
	res := Solve(g, spec, nil)
	bi := res.Classes[0] // B[i]
	// At entry of the next iteration, only the instance from 1 iteration
	// ago (distance 1) may still be live... after B[i-1] overwrites the
	// previous element each iteration, instances older than distance 1 are
	// definitely gone at the point after node 2.
	got := res.OutAt(g.Nodes[1], bi)
	if got.IsAll() {
		t.Errorf("OUT[n2, B[i]] = %s, want capped (definite kill at distance 1)", got)
	}
	if !got.Covers(0) {
		t.Errorf("OUT[n2, B[i]] = %s, must still cover distance 0", got)
	}
}

// TestSummaryNodeKillsConservatively: a def inside an inner loop kills all
// instances of same-array classes in the enclosing analysis.
func TestSummaryNodeKillsConservatively(t *testing.T) {
	g := buildLoop(t, `
do j = 1, M
  X[j] := 1
  do i = 1, N
    X[i] := 2
  enddo
  Y[j] := X[j]
enddo
`)
	res := Solve(g, mustReach(), nil)
	xj := res.Classes[0] // X[j]
	// After the summary node, no instance of X[j] survives.
	if got := res.InAt(g.Nodes[2], xj); !got.IsNone() {
		t.Errorf("IN[n3, X[j]] = %s, want ⊥ (summary kill)", got)
	}
}

// TestNodeVisitBound: total node visits for a must-problem stay within
// (passes)·N with passes ≤ init + changed + 1.
func TestNodeVisitBound(t *testing.T) {
	g := buildLoop(t, fig1)
	res := Solve(g, mustReach(), nil)
	n := len(g.Nodes)
	maxVisits := (1 + res.Passes) * n
	if res.NodeVisits > maxVisits {
		t.Errorf("node visits = %d > %d", res.NodeVisits, maxVisits)
	}
}

// TestTupleTableRendering sanity-checks the Table-1-style printer.
func TestTupleTableRendering(t *testing.T) {
	g := buildLoop(t, fig1)
	res := Solve(g, mustReach(), &Options{CollectTrace: true})
	for _, pass := range []int{-1, 0, 1, 2} {
		s := res.TupleTable(pass)
		if len(s) == 0 || s[0] == '<' {
			t.Errorf("pass %d table missing: %q", pass, s)
		}
	}
}
