package dataflow

import (
	"repro/internal/ir"
	"repro/internal/lattice"
)

// Clamp is a compiled (node, class) flow function f(x) = min(max(x, Lo), Hi)
// as the solver encodes it; Gen marks a generating function.
type Clamp struct {
	Node, Class int
	Gen         bool
	Lo, Hi      lattice.Dist
}

// CompiledClamps compiles spec on g exactly as Solve does and returns every
// non-identity clamp together with the lane width the solve packs its rows
// at. Slots absent from the list are the identity clamp (⊥, ⊤).
func CompiledClamps(g *ir.Graph, spec *Spec, opts *Options) ([]Clamp, uint) {
	if opts == nil {
		opts = &Options{}
	}
	sc := NewScratch()
	st := newSolveCtx(g).prepare(spec, opts, sc)
	out := make([]Clamp, len(sc.clamps))
	for i, c := range sc.clamps {
		out[i] = Clamp{Node: int(c.node), Class: int(c.class), Gen: c.gen, Lo: c.lo, Hi: c.hi}
	}
	return out, st.pk.Lane
}

// LaneWidth reports the lane width res's rows are packed at.
func LaneWidth(res *Result) uint { return res.pk.Lane }
