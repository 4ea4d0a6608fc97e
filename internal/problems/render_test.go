package problems

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
)

// TestReuseRenderingFmtFree pins the report's per-reuse rendering: String
// and WriteTo produce the line the fmt-based renderer did, and WriteTo into
// a builder with room allocates nothing, so a report's reuse loop costs no
// per-line allocations.
func TestReuseRenderingFmtFree(t *testing.T) {
	srcs := []string{
		fig1,
		"do i = 1, N\n  A[i+120] := A[i] + A[i-3]\n  X[i, 2] := X[i-1, 2] + A[i+117]\nenddo\n",
	}
	var reuses []Reuse
	for _, src := range srcs {
		g := buildLoop(t, src)
		reuses = append(reuses, FindReuses(Solve(g, MustReachingDefs()))...)
		reuses = append(reuses, FindReuses(Solve(g, AvailableValues()))...)
	}
	if len(reuses) < 8 {
		t.Fatalf("found %d reuses, want at least 8 to render", len(reuses))
	}
	wide := false
	for _, r := range reuses {
		want := fmt.Sprintf("%s %s@n%d reuses %s @ distance %d",
			r.At.Kind, ast.ExprString(r.At.Expr), r.At.Node.ID,
			ast.ExprString(r.From.Members[0].Expr), r.Distance)
		if got := r.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		wide = wide || r.Distance >= 100
	}
	if !wide {
		t.Error("no reuse at a three-digit distance")
	}
	var b strings.Builder
	allocs := testing.AllocsPerRun(20, func() {
		b.Reset()
		b.Grow(96 * len(reuses))
		for _, r := range reuses {
			r.WriteTo(&b)
		}
	})
	if allocs > 1 {
		t.Errorf("WriteTo of %d reuses: %.0f allocs, want 1 (the builder's)", len(reuses), allocs)
	}
}
