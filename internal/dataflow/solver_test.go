package dataflow

import (
	"bytes"
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

// walkLoops are straight-line and branching loops whose fixed points are
// stored at 8 and 16 bits: fig1, a 16-bit distance and a nested if/else.
var walkLoops = []string{
	fig1,
	"do i = 1, N\n  A[i] := A[i+300] + 1\nenddo\n",
	`
do i = 1, N
  if c1 > 0 then
    A[i+1] := B[i]
    if c2 > 0 then
      B[i+2] := A[i-1]
    endif
  else
    if c3 > 0 then
      A[i+2] := B[i-1]
    else
      B[i] := A[i]
    endif
  endif
  B[i] := A[i]
enddo
`,
}

// TestPackedSteadyStateAllocFree pins the solver's core property (the
// name keeps the solver's historical "packed" label): once a solve is
// prepared, walking every class of it, initialization, passes and change
// points included, allocates nothing. It holds on straight-line loops and
// on branching ones, whose kept joins resolve their inputs per class.
func TestPackedSteadyStateAllocFree(t *testing.T) {
	for _, src := range walkLoops {
		g := buildLoop(t, src)
		for _, spec := range standardTestSpecs() {
			opts := &Options{}
			res, w := newSolveCtx(g).prepare(spec, opts, &Scratch{})
			var b rowBuilder
			walkAll := func() {
				b.reset()
				for ci := range res.Classes {
					w.walk(ci, opts, opts.passLimit())
					w.emit(&b)
				}
			}
			if allocs := testing.AllocsPerRun(100, walkAll); allocs != 0 {
				t.Errorf("%s: walking every class allocates %.0f objects per run, want 0 for\n%s", spec.Name, allocs, src)
			}
		}
	}
}

// TestPackedSlabLayout pins the layout of the bytes a solve packs its
// fixed point into (rows.go; the name keeps the solver's historical
// "packed" label): per set and class one run of change points, node IDs
// strictly ascending within a run, every point differing from the one
// before it, and values at the narrowest width whose all-ones code lies
// above the largest finite one. Those invariants give one fixed point one
// encoding, so rebuilding the stored form from the decoded table, node by
// node, gives back the same bytes; and a lone code is stored at the width
// its size picks and reads back unchanged.
func TestPackedSlabLayout(t *testing.T) {
	for _, src := range walkLoops {
		g := buildLoop(t, src)
		n := len(g.Nodes)
		for _, spec := range standardTestSpecs() {
			cr := Solve(g, spec, nil).rows
			if _, err := parseRows(cr.b, n, cr.m); err != nil {
				t.Fatalf("%s: stored rows break the layout: %v", spec.Name, err)
			}
			in, out := cr.decode(0, n), cr.decode(1, n)
			var b rowBuilder
			for ci := 0; ci < cr.m; ci++ {
				for id := 1; id <= n; id++ {
					b.put(id, lattice.Code(in[id][ci]), lattice.Code(out[id][ci]))
				}
				b.end()
			}
			if again := b.rows(); !bytes.Equal(again.b, cr.b) {
				t.Errorf("%s: rebuilding the decoded table gives %d bytes at %d bits, the solve stored %d at %d for\n%s",
					spec.Name, len(again.b), again.width, len(cr.b), cr.width, src)
			}
		}
	}
	for _, x := range []lattice.Dist{lattice.None(), lattice.D(0), lattice.D(253), lattice.D(254),
		lattice.D(65533), lattice.D(65534), lattice.D(1 << 40), lattice.All()} {
		var b rowBuilder
		b.put(1, lattice.Code(x), lattice.Code(x))
		b.end()
		cr := b.rows()
		width := 64
		if v, ok := x.Finite(); !ok || v < 254 {
			width = 8
		} else if v < 65534 {
			width = 16
		}
		if got := cr.at(0, 1, 0); cr.width != width || !got.Eq(x) {
			t.Errorf("%s stored at %d bits reads back %s, want %d bits", x, cr.width, got, width)
		}
	}
}
