package regalloc

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/parser"
)

func graphOf(t *testing.T, src string) *ir.Graph {
	t.Helper()
	prog := parser.MustParse(src)
	loop := prog.Body[0].(*ast.DoLoop)
	g := ir.Build(loop, nil)
	return g
}

func rangeOf(rs []*ScalarRange, name string) *ScalarRange {
	for _, r := range rs {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// TestLoopInvariantLiveEverywhere: an input scalar read every iteration is
// live across the back edge and at every node.
func TestLoopInvariantLiveEverywhere(t *testing.T) {
	g := graphOf(t, `
do i = 1, 100
  A[i] := x
  B[i] := x
enddo
`)
	rs := ScalarLiveness(g)
	x := rangeOf(rs, "x")
	if x == nil {
		t.Fatal("x range missing")
	}
	if !x.CrossIteration {
		t.Error("x must be live across the back edge")
	}
	if x.Span() != int64(len(g.Nodes)) {
		t.Errorf("x span = %d, want %d (all nodes)", x.Span(), len(g.Nodes))
	}
}

// TestIntraIterationTemp: a scalar defined then used within one iteration
// is dead across the back edge and has a short span.
func TestIntraIterationTemp(t *testing.T) {
	g := graphOf(t, `
do i = 1, 100
  t := A[i] + 1
  B[i] := t
  C[i] := 7
enddo
`)
	rs := ScalarLiveness(g)
	tt := rangeOf(rs, "t")
	if tt == nil {
		t.Fatal("t range missing")
	}
	if tt.CrossIteration {
		t.Error("t must not be live across iterations (defined before use)")
	}
	// Live at entry of the B[i] node only.
	if tt.Span() != 1 {
		t.Errorf("t span = %d, want 1; live at %v", tt.Span(), tt.LiveAt)
	}
}

// TestAccumulatorCrossIteration: s := s + … is live everywhere.
func TestAccumulatorCrossIteration(t *testing.T) {
	g := graphOf(t, `
do i = 1, 100
  s := s + A[i]
enddo
`)
	rs := ScalarLiveness(g)
	s := rangeOf(rs, "s")
	if s == nil || !s.CrossIteration {
		t.Fatalf("accumulator must be live across the back edge: %+v", s)
	}
}

// TestDisjointTempsDoNotInterfere: two temporaries with disjoint regions
// get no IRIG edge and can share a register budget slot.
func TestDisjointTempsDoNotInterfere(t *testing.T) {
	g := graphOf(t, `
do i = 1, 100
  t1 := A[i]
  B[i] := t1
  t2 := C[i]
  D[i] := t2
enddo
`)
	rs := ScalarLiveness(g)
	t1 := rangeOf(rs, "t1")
	t2 := rangeOf(rs, "t2")
	if t1 == nil || t2 == nil {
		t.Fatal("ranges missing")
	}
	if t1.Overlaps(t2) {
		t.Errorf("disjoint temps overlap: t1@%v t2@%v", t1.LiveAt, t2.LiveAt)
	}
}

// TestOverlappingTempsInterfere.
func TestOverlappingTempsInterfere(t *testing.T) {
	g := graphOf(t, `
do i = 1, 100
  t1 := A[i]
  t2 := C[i]
  B[i] := t1 + t2
enddo
`)
	rs := ScalarLiveness(g)
	t1 := rangeOf(rs, "t1")
	t2 := rangeOf(rs, "t2")
	if !t1.Overlaps(t2) {
		t.Errorf("overlapping temps must interfere: t1@%v t2@%v", t1.LiveAt, t2.LiveAt)
	}
}

// TestBranchLiveness: a scalar used only in one branch is live at the
// branch node but not after the join.
func TestBranchLiveness(t *testing.T) {
	g := graphOf(t, `
do i = 1, 100
  t := A[i]
  if c > 0 then
    B[i] := t
  endif
  D[i] := 1
enddo
`)
	rs := ScalarLiveness(g)
	tt := rangeOf(rs, "t")
	if tt == nil {
		t.Fatal("t range missing")
	}
	if tt.CrossIteration {
		t.Error("t dead across iterations")
	}
	// t live at the then-node entry; dead at the join (D[i] node).
	var join int
	for _, nd := range g.Nodes {
		if nd.Assign != nil {
			if lhs, ok := nd.Assign.LHS.(*ast.ArrayRef); ok && lhs.Name == "D" {
				join = nd.ID
			}
		}
	}
	if tt.LiveAt[join] {
		t.Errorf("t live past its last use: %v", tt.LiveAt)
	}
}

// TestAllocatorUsesSparseIRIG: two disjoint temps plus one pipeline fit a
// budget that a complete-graph IRIG would reject.
func TestAllocatorUsesSparseIRIG(t *testing.T) {
	g := graphOf(t, `
do i = 1, 100
  t1 := A[i]
  B[i+1] := B[i] + t1
  t2 := C[i]
  D[i] := t2
enddo
`)
	// Ranges: pipeline B (depth 2), t1 (span ~1), t2 (span ~1), disjoint.
	// Budget 3: complete IRIG needs 4; sparse IRIG colors t1/t2 apart.
	a := Allocate(g, &Options{K: 3})
	var spilled []string
	for _, lr := range a.Ranges {
		if !lr.Allocated {
			spilled = append(spilled, lr.Name())
		}
	}
	if len(spilled) != 0 {
		t.Errorf("k=3 should fit via disjoint scalar ranges; spilled %v\n%s", spilled, a.Report())
	}
	if len(a.AllocatedPipelines()) != 1 {
		t.Errorf("pipeline missing\n%s", a.Report())
	}
}

// TestSummaryNodeScalars: scalars touched inside a summarized inner loop
// are tracked conservatively.
func TestSummaryNodeScalars(t *testing.T) {
	g := graphOf(t, `
do j = 1, 100
  do i = 1, 50
    s := s + A[i]
  enddo
  B[j] := s
enddo
`)
	rs := ScalarLiveness(g)
	s := rangeOf(rs, "s")
	if s == nil {
		t.Fatal("s range missing")
	}
	if s.Span() == 0 {
		t.Error("s must be live somewhere")
	}
}
