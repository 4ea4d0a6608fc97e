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
// non-identity clamp. Slots absent from the list are the identity clamp
// (⊥, ⊤).
func CompiledClamps(g *ir.Graph, spec *Spec, opts *Options) []Clamp {
	if opts == nil {
		opts = &Options{}
	}
	sc := &Scratch{}
	newSolveCtx(g).prepare(spec, opts, sc)
	out := make([]Clamp, len(sc.clamps))
	for i, c := range sc.clamps {
		out[i] = Clamp{Node: int(c.node), Class: int(c.class), Gen: c.gen, Lo: lattice.FromCode(c.lo), Hi: lattice.FromCode(c.hi)}
	}
	return out
}

// PreserveMemoCells compiles spec on g exactly as Solve does and returns
// the number of cells the compile's preserve memo laid out.
func PreserveMemoCells(g *ir.Graph, spec *Spec) int {
	sc := &Scratch{}
	newSolveCtx(g).prepare(spec, &Options{}, sc)
	return len(sc.memo)
}
