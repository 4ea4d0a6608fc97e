package dataflow

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/lattice"
)

// The four standard problem instances, hand-built because the in-package
// test cannot import internal/problems (it imports this package). The
// predicates match problems.StandardSpecs exactly.
func standardTestSpecs() []*Spec {
	return []*Spec{
		{
			Name: "must-reaching-defs",
			Gen:  func(r *ir.Ref) bool { return r.Kind == ir.Def },
			Kill: func(r *ir.Ref) bool { return r.Kind == ir.Def },
		},
		{
			Name: "delta-available-values",
			Gen:  func(r *ir.Ref) bool { return true },
			Kill: func(r *ir.Ref) bool { return r.Kind == ir.Def },
		},
		{
			Name:     "delta-busy-stores",
			Backward: true,
			Gen:      func(r *ir.Ref) bool { return r.Kind == ir.Def },
			Kill:     func(r *ir.Ref) bool { return r.Kind == ir.Use },
		},
		{
			Name: "delta-reaching-refs",
			May:  true,
			Gen:  func(r *ir.Ref) bool { return true },
			Kill: func(r *ir.Ref) bool { return r.Kind == ir.Def },
		},
	}
}

// laneLoops are loops whose largest finite preserve distance needs each
// lane width: fig1's small distances fit 8-bit lanes; a store A[i] that
// overwrites the element a use read 300 iterations earlier gives a
// distance of 300, which needs 16-bit lanes, and one of 5·10⁹ needs 64-bit
// lanes.
var laneLoops = []struct {
	src  string
	lane uint
}{
	{fig1, lattice.Lane8},
	{"do i = 1, N\n  A[i] := A[i+300] + 1\nenddo\n", lattice.Lane16},
	{"do i = 1, N\n  A[i] := A[i+5000000000] + 1\nenddo\n", lattice.Lane64},
}

// TestSolveAllSharesClassTables pins the fusion actually shares: specs with
// the same generate signature get the same *Class values from one SolveAll.
func TestSolveAllSharesClassTables(t *testing.T) {
	g := buildLoop(t, fig1)
	specs := standardTestSpecs() // reach and busy share G = defs; avail and deps share G = all
	results := SolveAll(g, specs, nil)
	if len(results[0].Classes) == 0 || len(results[1].Classes) == 0 {
		t.Fatal("expected classes on fig1")
	}
	if results[0].Classes[0] != results[2].Classes[0] {
		t.Errorf("must-reaching-defs and delta-busy-stores should share one class table")
	}
	if results[1].Classes[0] != results[3].Classes[0] {
		t.Errorf("delta-available-values and delta-reaching-refs should share one class table")
	}
}

// TestPackedSteadyStateAllocFree pins the solver's core property: once a
// solve is prepared, running a full iteration pass allocates nothing — at
// every lane width.
func TestPackedSteadyStateAllocFree(t *testing.T) {
	for _, ll := range laneLoops {
		g := buildLoop(t, ll.src)
		widest := uint(0)
		for _, spec := range standardTestSpecs() {
			ctx := newSolveCtx(g)
			sc := NewScratch()
			st := ctx.prepare(spec, &Options{}, sc)
			widest = max(widest, st.pk.Lane)
			st.initStage(&Options{})
			// Give the exhaustion check headroom: the measured passes must
			// never trip it.
			st.fuel = 1 << 40
			if allocs := testing.AllocsPerRun(100, func() { st.iteratePass() }); allocs != 0 {
				t.Errorf("%s (lane %d): steady-state iteration pass allocates %.0f objects per run, want 0",
					spec.Name, st.pk.Lane, allocs)
			}
		}
		if widest != ll.lane {
			t.Errorf("widest lane over the standard specs = %d, want %d for\n%s", widest, ll.lane, ll.src)
		}
	}
}

// TestPackedSlabLayout pins the packed row storage shape: IN and OUT sets
// (plus the two init snapshot sets for a must-problem) of one row per node,
// pk.Words words each, with the tail lanes past the last class zero — the
// invariant that makes row equality word equality.
func TestPackedSlabLayout(t *testing.T) {
	g := buildLoop(t, fig1)
	for _, spec := range standardTestSpecs() {
		res := Solve(g, spec, nil)
		sets := 2
		if res.InitIn() != nil {
			sets = 4
		}
		if want := sets * len(g.Nodes) * res.pk.Words; len(res.rows) != want {
			t.Fatalf("%s: rows = %d words, want %d", spec.Name, len(res.rows), want)
		}
		perWord := 64 / int(res.pk.Lane)
		rem := len(res.Classes) % perWord
		if rem == 0 {
			continue
		}
		for i := res.pk.Words - 1; i < len(res.rows); i += res.pk.Words {
			if tail := res.rows[i] >> uint(rem*int(res.pk.Lane)); tail != 0 {
				t.Fatalf("%s: row word %d has nonzero tail lanes %#x", spec.Name, i, tail)
			}
		}
	}
}
