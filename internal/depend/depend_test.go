package depend

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/parser"
)

func buildLoop(t *testing.T, src string) *ir.Graph {
	t.Helper()
	prog := parser.MustParse(src)
	loop := prog.Body[0].(*ast.DoLoop)
	g := ir.Build(loop, nil)
	return g
}

func TestChainCriticalPath(t *testing.T) {
	g := buildLoop(t, `
do i = 1, 100
  B[i] := A[i] + 1
  C[i] := B[i] * 2
  D[i] := C[i] - 3
enddo
`)
	dg := BuildFromLoop(g, 8)
	if l := dg.CriticalPath(); l != 3 {
		t.Fatalf("critical path = %d, want 3\n%s", l, dg)
	}
}

func TestIndependentStatements(t *testing.T) {
	g := buildLoop(t, `
do i = 1, 100
  B[i] := x + 1
  C[i] := y * 2
  D[i] := z - 3
enddo
`)
	dg := BuildFromLoop(g, 8)
	if l := dg.CriticalPath(); l != 1 {
		t.Fatalf("critical path = %d, want 1 (no deps)\n%s", l, dg)
	}
	// Fully parallel: unrolling keeps the path at 1.
	if l4 := dg.UnrolledCriticalPath(4); l4 != 1 {
		t.Fatalf("l_unroll(4) = %d, want 1\n%s", l4, dg)
	}
}

func TestCarriedRecurrenceSerializes(t *testing.T) {
	g := buildLoop(t, `
do i = 1, 100
  A[i+1] := A[i] + 1
enddo
`)
	dg := BuildFromLoop(g, 8)
	if !dg.HasCarriedDistance(1) {
		t.Fatalf("distance-1 dependence missing\n%s", dg)
	}
	l := dg.CriticalPath()
	for u := 2; u <= 4; u++ {
		lu := dg.UnrolledCriticalPath(u)
		if lu != int64(u)*l {
			t.Errorf("l_unroll(%d) = %d, want %d (serial chain)", u, lu, int64(u)*l)
		}
	}
}

func TestDistanceTwoAllowsPairwiseParallelism(t *testing.T) {
	g := buildLoop(t, `
do i = 1, 100
  A[i+2] := A[i] + 1
enddo
`)
	dg := BuildFromLoop(g, 8)
	if dg.HasCarriedDistance(1) {
		t.Fatalf("unexpected distance-1 dependence\n%s", dg)
	}
	if !dg.HasCarriedDistance(2) {
		t.Fatalf("distance-2 dependence missing\n%s", dg)
	}
	// Two copies run in parallel; four copies chain pairwise: l(2)=1, l(4)=2.
	if l2 := dg.UnrolledCriticalPath(2); l2 != 1 {
		t.Errorf("l_unroll(2) = %d, want 1", l2)
	}
	if l4 := dg.UnrolledCriticalPath(4); l4 != 2 {
		t.Errorf("l_unroll(4) = %d, want 2", l4)
	}
}

// TestPaperBound checks l ≤ l_unroll(2) ≤ 2l across a few shapes.
func TestPaperBound(t *testing.T) {
	srcs := []string{
		"do i = 1, 50\n A[i+1] := A[i] + 1\nenddo",
		"do i = 1, 50\n A[i+2] := A[i] + 1\n B[i] := A[i+2]\nenddo",
		"do i = 1, 50\n B[i] := A[i]\n C[i] := B[i]\n A[i+1] := C[i]\nenddo",
		"do i = 1, 50\n B[i] := x\n C[i] := y\nenddo",
	}
	for _, src := range srcs {
		dg := BuildFromLoop(buildLoop(t, src), 8)
		l, l2 := dg.CriticalPath(), dg.UnrolledCriticalPath(2)
		if l2 < l || l2 > 2*l {
			t.Errorf("bound violated for %q: l=%d l2=%d", src, l, l2)
		}
	}
}

func TestConditionalDependences(t *testing.T) {
	// A potential (may) dependence through a conditional definition is
	// still a dependence for scheduling purposes.
	g := buildLoop(t, `
do i = 1, 100
  if c > 0 then
    A[i+1] := x
  endif
  B[i] := A[i]
enddo
`)
	dg := BuildFromLoop(g, 8)
	if !dg.HasCarriedDistance(1) {
		t.Fatalf("may-dependence through conditional missing\n%s", dg)
	}
}

func TestZeroCopies(t *testing.T) {
	g := buildLoop(t, "do i = 1, 10\n A[i] := 1\nenddo")
	dg := BuildFromLoop(g, 4)
	if dg.UnrolledCriticalPath(0) != 0 {
		t.Error("u=0 must give 0")
	}
}
