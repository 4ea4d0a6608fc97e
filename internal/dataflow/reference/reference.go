// Package reference is the executable specification of the array data flow
// framework (paper §3), kept as the differential oracle for
// internal/dataflow's solver. It is deliberately naive: one
// freshly allocated tuple per node and per flow application, classes
// grouped by a linear scan, per-node flow functions compiled through member
// sets into generate/preserve op sequences and applied one step at a time,
// and pr computed by walking class members. It shares nothing with the
// solver but dataflow's exported API — Spec, Options, Class, TraceEntry,
// and the preserve derivation (PreserveConst, PreserveAgainstRegion) — so
// Compare can hold the two to byte-identical results.
//
// Only tests import this package; its guard test fails if a non-test
// package does.
package reference

import (
	"fmt"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/lattice"
	"repro/internal/poly"
	"repro/internal/sema"
)

// Result is the oracle's solution of one problem instance on one graph.
type Result struct {
	Graph   *ir.Graph
	Spec    *dataflow.Spec
	Classes []*dataflow.Class
	// In and Out are the fixed point tuples per node ID (1-based); InitIn and
	// InitOut snapshot the initialization pass and Trace every iteration
	// pass, both under CollectTrace only (InitIn is nil when no init pass
	// ran), as the solver records them.
	In, Out         []lattice.Tuple
	InitIn, InitOut []lattice.Tuple
	Trace           []dataflow.TraceEntry

	Passes, ChangedPasses int
	NodeVisits, FlowApps  int
	FuelBudget            int64
	FuelExhausted         bool

	fns      [][]flowFn // [nodeID][classIndex]
	facts    dataflow.RangeOracle
	symUB    poly.Poly
	hasSymUB bool
}

// flowOp is one step of a node's flow function for one class: either a
// generate (max(x, 0)) or a preserve cap (min(x, p)).
type flowOp struct {
	gen  bool
	pres lattice.Dist
}

// flowFn is the compiled flow function of one node for one class: the
// composition of per-reference effects in execution order (reversed for
// backward problems).
type flowFn []flowOp

// SolveAll solves each spec independently on g.
func SolveAll(g *ir.Graph, specs []*dataflow.Spec, opts *dataflow.Options) []*Result {
	out := make([]*Result, len(specs))
	for i, spec := range specs {
		out[i] = Solve(g, spec, opts)
	}
	return out
}

// Solve computes the greatest fixed point of spec over g, honoring every
// Options field: CollectTrace, MaxPasses, Fuel, SkipInitPass, MayTopStart,
// and Facts.
func Solve(g *ir.Graph, spec *dataflow.Spec, opts *dataflow.Options) *Result {
	if opts == nil {
		opts = &dataflow.Options{}
	}
	res := &Result{Graph: g, Spec: spec, Classes: groupClasses(g, spec.Gen), facts: opts.Facts}
	if !g.HasUB && g.UB != nil {
		if p, err := sema.ExprToPoly(g.UB); err == nil {
			res.symUB, res.hasSymUB = p, true
		}
	}
	m := len(res.Classes)
	n := len(g.Nodes)
	res.In = makeTuples(n, m)
	res.Out = makeTuples(n, m)
	res.fns = make([][]flowFn, n+1)
	for _, nd := range g.Nodes {
		res.fns[nd.ID] = make([]flowFn, m)
		for ci, c := range res.Classes {
			res.fns[nd.ID][ci] = res.compile(nd, c)
		}
	}

	order := g.RPO()
	entry := g.Entry
	preds := func(nd *ir.Node) []*ir.Node { return nd.Preds }
	if spec.Backward {
		rev := make([]*ir.Node, len(order))
		for i, nd := range order {
			rev[len(order)-1-i] = nd
		}
		order, entry = rev, g.Exit
		preds = func(nd *ir.Node) []*ir.Node { return nd.Succs }
	}

	// --- Initialization (paper §3.2 for must, §3.3 for may) -------------
	switch {
	case spec.May:
		// May-problems start every value at "all instances" (the reverse
		// lattice's ⊥); the MayTopStart ablation starts at "no instance".
		start := lattice.All()
		if opts.MayTopStart {
			start = lattice.None()
		}
		for id := 1; id <= n; id++ {
			res.In[id].Fill(start)
			res.Out[id].Fill(start)
		}
	case opts.SkipInitPass:
		for id := 1; id <= n; id++ {
			res.In[id].Fill(lattice.All())
			res.Out[id].Fill(lattice.All())
		}
	default:
		visited := make([]bool, n+1)
		for _, nd := range order {
			res.NodeVisits++
			in := res.In[nd.ID]
			if nd == entry {
				in.Fill(lattice.None())
			} else {
				in.Fill(lattice.All())
				any := false
				for _, p := range preds(nd) {
					if !visited[p.ID] {
						continue // back-edge predecessor: excluded from init
					}
					in.MeetInto(res.Out[p.ID], false)
					any = true
				}
				if !any {
					in.Fill(lattice.None())
				}
			}
			out := res.Out[nd.ID]
			copy(out, in)
			for ci := range res.Classes {
				if res.Generates(nd, ci) {
					out[ci] = lattice.All()
				}
			}
			visited[nd.ID] = true
		}
		if opts.CollectTrace {
			res.InitIn, res.InitOut = snapshot(res.In), snapshot(res.Out)
		}
	}

	// --- Fixed point iteration ------------------------------------------
	maxPasses := opts.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 64
	}
	// The budget is checked before a visit and debited per flow
	// application; the derived default can never bind.
	res.FuelBudget = opts.Fuel
	if res.FuelBudget <= 0 {
		res.FuelBudget = int64(maxPasses)*int64(n)*int64(max(m, 1)) + 64
	}
	fuel := res.FuelBudget
	for pass := 1; pass <= maxPasses && !res.FuelExhausted; pass++ {
		changed := false
		for _, nd := range order {
			if fuel < int64(m) {
				res.FuelExhausted = true
				break
			}
			res.NodeVisits++
			in := res.In[nd.ID]
			if ps := preds(nd); len(ps) > 0 {
				if spec.May {
					in.Fill(lattice.None())
				} else {
					in.Fill(lattice.All())
				}
				for _, p := range ps {
					in.MeetInto(res.Out[p.ID], spec.May)
				}
			}
			fuel -= int64(m)
			res.FlowApps += m
			newOut := make(lattice.Tuple, m)
			for ci, x := range in {
				newOut[ci] = res.Apply(nd, ci, x)
			}
			if !newOut.Eq(res.Out[nd.ID]) {
				changed = true
				copy(res.Out[nd.ID], newOut)
			}
		}
		if res.FuelExhausted {
			break
		}
		res.Passes = pass
		if changed {
			res.ChangedPasses++
		}
		if opts.CollectTrace {
			res.Trace = append(res.Trace, dataflow.TraceEntry{In: snapshot(res.In), Out: snapshot(res.Out)})
		}
		if !changed {
			break
		}
	}
	if res.FuelExhausted {
		// Degrade to the claim-nothing value of the polarity.
		v := lattice.None()
		if spec.May {
			v = lattice.All()
		}
		for id := 1; id <= n; id++ {
			res.In[id].Fill(v)
			res.Out[id].Fill(v)
		}
	}
	return res
}

// groupClasses collects the generating references (affine, not from an
// inner loop) into classes of equal array and subscript form, numbered in
// first-occurrence order.
func groupClasses(g *ir.Graph, gen func(*ir.Ref) bool) []*dataflow.Class {
	var classes []*dataflow.Class
	for _, r := range g.Refs {
		if !gen(r) || !r.Affine || r.FromInner {
			continue
		}
		var c *dataflow.Class
		for _, cand := range classes {
			if cand.Array == r.Array && cand.Form.A.Equal(r.Form.A) && cand.Form.B.Equal(r.Form.B) {
				c = cand
				break
			}
		}
		if c == nil {
			c = &dataflow.Class{Index: len(classes), Array: r.Array, Form: r.Form}
			classes = append(classes, c)
		}
		c.Members = append(c.Members, r)
	}
	return classes
}

// Pr computes pr(class ci, n) by walking the members: 0 when any member of
// the class occurs in a node that precedes n in the body (for backward
// problems: that n precedes).
func (res *Result) Pr(ci int, nd *ir.Node) int64 {
	for _, mem := range res.Classes[ci].Members {
		if res.Spec.Backward {
			if res.Graph.Precedes(nd, mem.Node) {
				return 0
			}
		} else if res.Graph.Precedes(mem.Node, nd) {
			return 0
		}
	}
	return 1
}

// compile builds the op sequence of node nd for class c.
func (res *Result) compile(nd *ir.Node, c *dataflow.Class) flowFn {
	memberSet := map[*ir.Ref]bool{}
	for _, mem := range c.Members {
		if mem.Node == nd {
			memberSet[mem] = true
		}
	}
	refs := nd.Refs
	if nd.Kind == ir.KindSummary {
		// A summary node stands for a whole inner loop whose internal order
		// is unknown at this level; order the effects by polarity so the
		// collapsed function stays a safe approximation: must-problems
		// apply generates before kills (underestimate), may-problems kills
		// before generates (overestimate).
		var gens, kills []*ir.Ref
		for _, r := range refs {
			if memberSet[r] {
				gens = append(gens, r)
			} else {
				kills = append(kills, r)
			}
		}
		if res.Spec.May {
			refs = append(kills, gens...)
		} else {
			refs = append(gens, kills...)
		}
	}
	seq := refs
	if res.Spec.Backward {
		seq = make([]*ir.Ref, len(refs))
		for i, r := range refs {
			seq[len(refs)-1-i] = r
		}
	}

	nodePr := res.Pr(c.Index, nd)
	var ops flowFn
	genSeen := false
	for _, r := range seq {
		if memberSet[r] {
			ops = append(ops, flowOp{gen: true})
			genSeen = true
			continue
		}
		if !res.Spec.Kill(r) || r.Array != c.Array {
			continue
		}
		pr := nodePr
		if genSeen {
			// A member already executed within this node before the kill:
			// the distance-0 instance is in range.
			pr = 0
		}
		ctx := dataflow.KillContext{
			Pr:       pr,
			May:      res.Spec.May,
			Backward: res.Spec.Backward,
			UB:       res.Graph.UBConst,
			HasUB:    res.Graph.HasUB,
			SymUB:    res.symUB,
			HasSymUB: res.hasSymUB,
			Facts:    res.facts,
		}
		var p lattice.Dist
		if r.FromInner && r.HasRegion {
			p = dataflow.PreserveAgainstRegion(c.Form, r.RegionLo, r.RegionHi, ctx)
		} else {
			p = dataflow.PreserveConst(c.Form, r.Form, r.Affine && !r.FromInner, ctx)
		}
		if p.IsAll() {
			continue // identity cap
		}
		if k := len(ops); k > 0 && !ops[k-1].gen {
			ops[k-1].pres = lattice.Min(ops[k-1].pres, p) // merge consecutive caps
			continue
		}
		ops = append(ops, flowOp{pres: p})
	}
	return ops
}

// Generates reports whether node nd's flow function for class ci contains a
// generate step (the initialization pass's overestimate).
func (res *Result) Generates(nd *ir.Node, ci int) bool {
	for _, op := range res.fns[nd.ID][ci] {
		if op.gen {
			return true
		}
	}
	return false
}

// Apply applies node nd's flow function for class ci to one lattice value.
// The exit node's function is the loop-closing increment (clamped at the
// constant bound when known); every other node walks its compiled
// generate/preserve op sequence.
func (res *Result) Apply(nd *ir.Node, ci int, x lattice.Dist) lattice.Dist {
	if nd.Kind == ir.KindExit {
		v := x.Inc()
		if res.Graph.HasUB {
			v = v.Clamp(res.Graph.UBConst)
		}
		return v
	}
	for _, op := range res.fns[nd.ID][ci] {
		if op.gen {
			x = lattice.Max(x, lattice.D(0))
		} else {
			x = lattice.Min(x, op.pres)
		}
	}
	return x
}

// Metrics bundles the oracle's counters the way dataflow.Result.Metrics
// does (Elapsed stays zero).
func (res *Result) Metrics() dataflow.Metrics {
	return dataflow.Metrics{
		Nodes:         len(res.Graph.Nodes),
		Classes:       len(res.Classes),
		Passes:        res.Passes,
		ChangedPasses: res.ChangedPasses,
		NodeVisits:    res.NodeVisits,
		FlowApps:      res.FlowApps,
		FuelExhausted: res.FuelExhausted,
	}
}

// TupleTable renders IN/OUT rows for every node in the format of
// dataflow.Result.TupleTable: pass -1 the fixed point, 0 the initialization
// pass, k ≥ 1 the k-th traced pass.
func (res *Result) TupleTable(pass int) string {
	var in, out []lattice.Tuple
	switch {
	case pass < 0:
		in, out = res.In, res.Out
	case pass == 0:
		in, out = res.InitIn, res.InitOut
	default:
		if pass > len(res.Trace) {
			return fmt.Sprintf("<no trace for pass %d>", pass)
		}
		in, out = res.Trace[pass-1].In, res.Trace[pass-1].Out
	}
	if in == nil {
		return "<no snapshot>"
	}
	header := make([]string, len(res.Classes))
	for i, c := range res.Classes {
		header[i] = c.String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s tuples (%s)\n", "", strings.Join(header, ", "))
	for _, nd := range res.Graph.Nodes {
		fmt.Fprintf(&b, "IN [%d]  %s\nOUT[%d]  %s\n", nd.ID, in[nd.ID], nd.ID, out[nd.ID])
	}
	return b.String()
}

// Compare reports the first difference between a solver result and the
// oracle's solution of the same problem: class grouping, the fixed point
// (as a table and cell by cell through InAt/OutAt), the initialization
// snapshot, every traced pass, the pass and work counters, the fuel
// outcome, and pr over every (class, node). nil means byte-identical.
func Compare(got *dataflow.Result, want *Result) error {
	if len(got.Classes) != len(want.Classes) {
		return fmt.Errorf("classes = %d, want %d", len(got.Classes), len(want.Classes))
	}
	for i, c := range want.Classes {
		if got.Classes[i].String() != c.String() || got.Classes[i].Index != i {
			return fmt.Errorf("class %d = %s, want %s", i, got.Classes[i], c)
		}
	}
	if g, w := got.TupleTable(-1), want.TupleTable(-1); g != w {
		return fmt.Errorf("fixed point differs:\nsolver:\n%s\nreference:\n%s", g, w)
	}
	for _, nd := range want.Graph.Nodes {
		for ci, c := range got.Classes {
			if g, w := got.InAt(nd, c), want.In[nd.ID][ci]; !g.Eq(w) {
				return fmt.Errorf("IN(n%d, %s) = %s, want %s", nd.ID, c, g, w)
			}
			if g, w := got.OutAt(nd, c), want.Out[nd.ID][ci]; !g.Eq(w) {
				return fmt.Errorf("OUT(n%d, %s) = %s, want %s", nd.ID, c, g, w)
			}
		}
	}
	if g, w := got.TupleTable(0), want.TupleTable(0); g != w {
		return fmt.Errorf("init snapshot differs:\nsolver:\n%s\nreference:\n%s", g, w)
	}
	if len(got.Trace) != len(want.Trace) {
		return fmt.Errorf("trace length = %d, want %d", len(got.Trace), len(want.Trace))
	}
	for p := 1; p <= len(want.Trace); p++ {
		if g, w := got.TupleTable(p), want.TupleTable(p); g != w {
			return fmt.Errorf("pass %d snapshot differs:\nsolver:\n%s\nreference:\n%s", p, g, w)
		}
	}
	gm := got.Metrics()
	gm.Elapsed = 0
	if wm := want.Metrics(); gm != wm {
		return fmt.Errorf("metrics = %+v, want %+v", gm, wm)
	}
	if got.FuelBudget != want.FuelBudget {
		return fmt.Errorf("fuel budget = %d, want %d", got.FuelBudget, want.FuelBudget)
	}
	for ci, c := range got.Classes {
		for _, nd := range want.Graph.Nodes {
			if g, w := got.Pr(c, nd), want.Pr(ci, nd); g != w {
				return fmt.Errorf("pr(%s, n%d) = %d, want %d", c, nd.ID, g, w)
			}
		}
	}
	return nil
}

func makeTuples(n, m int) []lattice.Tuple {
	out := make([]lattice.Tuple, n+1)
	for i := 1; i <= n; i++ {
		out[i] = make(lattice.Tuple, m)
	}
	return out
}

func snapshot(ts []lattice.Tuple) []lattice.Tuple {
	out := make([]lattice.Tuple, len(ts))
	for i, t := range ts {
		if t != nil {
			out[i] = t.Clone()
		}
	}
	return out
}
