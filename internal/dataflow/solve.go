package dataflow

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/lattice"
	"repro/internal/poly"
	"repro/internal/sema"
)

// Spec parameterizes the framework with the pair (G, K) of paper §3.1: a
// predicate selecting the references that generate instances and one
// selecting the references that kill instances, together with the problem's
// direction and polarity.
type Spec struct {
	// Name identifies the problem in reports (e.g. "must-reaching-defs").
	Name string
	// Backward solves on the reverse graph with the backward kill-distance
	// function (paper §3.4).
	Backward bool
	// May selects the reverse lattice (meet = max) and overestimating
	// preserve constants (paper §3.3).
	May bool
	// Gen reports whether a reference generates instances.
	Gen func(r *ir.Ref) bool
	// Kill reports whether a reference kills instances.
	Kill func(r *ir.Ref) bool
}

// Class is one tracked entity of the analysis: the equivalence class of
// generating references with the same array and the same affine subscript.
// In the common case each class has a single member (e.g. the four
// definitions of Figure 1); δ-busy stores track textually distinct
// subscript expressions, which this classing realizes.
type Class struct {
	Index int // position in the solution tuples
	Array string
	Form  sema.AffineForm
	// Members are the references of this class in source order.
	Members []*ir.Ref
}

// String renders the class by its first member's textual reference,
// e.g. "C[i + 2]" or "X[i + 1, j]".
func (c *Class) String() string {
	var b strings.Builder
	c.WriteTo(&b)
	return b.String()
}

// WriteTo writes the rendering String returns to b without formatting
// through fmt; a class without members (only hand-built ones) renders its
// array and affine form.
func (c *Class) WriteTo(b *strings.Builder) {
	if len(c.Members) > 0 {
		ast.WriteExpr(b, c.Members[0].Expr)
		return
	}
	b.WriteString(c.Array)
	b.WriteByte('[')
	b.WriteString(c.Form.String())
	b.WriteByte(']')
}

// Result is the fixed point solution of one problem instance on one graph.
type Result struct {
	Graph   *ir.Graph
	Spec    *Spec
	Classes []*Class
	// ct is the class table behind Classes, ClassOf and ClassesOf.
	ct *classTable
	// prZero holds one bitset per class over node IDs with pr(class, node)
	// = 0, aliasing the graph's precedes row for a class whose members sit
	// in one node; Pr answers from it without touching the members.
	prZero [][]uint64

	// rows is the fixed point in change-point form (rows.go), immutable
	// once the solve returns. For backward problems, following the paper's
	// convention, IN describes a node's *exit* (information entering it in
	// the reversed graph) and OUT its entry. InAt/OutAt/TupleTable read it.
	rows changeRows
	// init holds the initialization pass's snapshot when solving with
	// CollectTrace (nil slices otherwise, and for solves that run none).
	init TraceEntry
	// Trace holds per-pass snapshots of (In, Out) when solving with
	// CollectTrace (pass 1 first).
	Trace []TraceEntry

	// Passes is the number of iteration passes executed until the tuples
	// stabilized (the stabilizing confirmation pass included).
	Passes int
	// ChangedPasses is the number of passes that changed at least one tuple.
	ChangedPasses int
	// NodeVisits counts every node visit across the initialization and all
	// iteration passes.
	NodeVisits int
	// FlowApps counts flow-function applications (one per tracked class per
	// node visit) during the iteration passes.
	FlowApps int
	// Elapsed is the wall time of the Solve call.
	Elapsed time.Duration

	// FuelBudget is the resolved fuel budget the solve ran under (the
	// explicit Options.Fuel, or the derived never-binding default).
	FuelBudget int64
	// FuelExhausted reports that the iteration ran out of fuel and every
	// tuple was degraded to the claim-nothing value of the problem's
	// polarity (must → ⊥, may → ⊤). Degraded results are sound but carry
	// no information; consumers surface them as "unknown".
	FuelExhausted bool
}

// Metrics is the cheap per-solve instrumentation bundle: the empirical
// check of the paper's ≤ 3-pass claim plus the raw work counters a driver
// aggregates across loops.
type Metrics struct {
	// Nodes and Classes give the problem size (N and m of the paper's
	// O(N·m) bound).
	Nodes   int
	Classes int
	// Passes is the total iteration passes (confirmation pass included);
	// ChangedPasses those that changed a tuple (paper claim: ≤ 2 for
	// must-problems, ≤ 1 for may-problems).
	Passes        int
	ChangedPasses int
	// NodeVisits counts node visits across initialization and iteration.
	NodeVisits int
	// FlowApps counts per-class flow-function applications while iterating.
	FlowApps int
	// Elapsed is the solve's wall time.
	Elapsed time.Duration
	// FuelExhausted reports that the solve (or, after Add, any aggregated
	// solve) ran out of fuel and degraded its tuples to "unknown".
	FuelExhausted bool
}

// HeldBytes estimates the memory the result holds beyond its graph,
// counted from lengths: the change-point rows, the class table and the pr
// bitsets it does not alias from the graph. Results of one SolveAll that
// share a class table each count it, so a sum over them errs high.
func (res *Result) HeldBytes() int {
	const ptr = int(unsafe.Sizeof(uintptr(0)))
	n := int(unsafe.Sizeof(Result{})) + len(res.rows.b)
	if ct := res.ct; ct != nil {
		n += len(ct.classes)*(int(unsafe.Sizeof(Class{}))+2*ptr+8) + 4*len(ct.refClass)
		for _, c := range ct.classes {
			n += ptr * len(c.Members)
		}
	}
	for i, row := range res.prZero {
		n += 3 * ptr
		if !oneNode(res.Classes[i]) {
			n += 8 * len(row)
		}
	}
	return n
}

// symUBOf returns the loop bound as a polynomial over invariant symbols
// when the bound exists but is not a compile-time constant. A bound that
// fails to convert (e.g. mentions an array element) yields ok=false and
// symbolic-top resolution is simply unavailable.
func symUBOf(g *ir.Graph) (poly.Poly, bool) {
	if g.HasUB || g.UB == nil {
		return poly.Poly{}, false
	}
	p, err := sema.ExprToPoly(g.UB)
	if err != nil {
		return poly.Poly{}, false
	}
	return p, true
}

// Metrics bundles the result's instrumentation counters.
func (res *Result) Metrics() Metrics {
	return Metrics{
		Nodes:         len(res.Graph.Nodes),
		Classes:       len(res.Classes),
		Passes:        res.Passes,
		ChangedPasses: res.ChangedPasses,
		NodeVisits:    res.NodeVisits,
		FlowApps:      res.FlowApps,
		Elapsed:       res.Elapsed,
		FuelExhausted: res.FuelExhausted,
	}
}

// Add accumulates counters (wall times sum; sizes and passes take the max,
// so an aggregate still checks the per-solve pass bound).
func (m *Metrics) Add(o Metrics) {
	if o.Nodes > m.Nodes {
		m.Nodes = o.Nodes
	}
	if o.Classes > m.Classes {
		m.Classes = o.Classes
	}
	if o.Passes > m.Passes {
		m.Passes = o.Passes
	}
	if o.ChangedPasses > m.ChangedPasses {
		m.ChangedPasses = o.ChangedPasses
	}
	m.NodeVisits += o.NodeVisits
	m.FlowApps += o.FlowApps
	m.Elapsed += o.Elapsed
	m.FuelExhausted = m.FuelExhausted || o.FuelExhausted
}

// fuelExhaustedTotal counts fuel-exhausted solves process-wide; the service
// stats endpoint exposes it.
var fuelExhaustedTotal atomic.Int64

// FuelExhaustedTotal returns the number of solves in this process that ran
// out of fuel and degraded their results to "unknown".
func FuelExhaustedTotal() int64 { return fuelExhaustedTotal.Load() }

// TraceEntry snapshots one iteration pass.
type TraceEntry struct {
	In  []lattice.Tuple
	Out []lattice.Tuple
}

// Options tunes the solver.
type Options struct {
	// CollectTrace records per-pass snapshots (used to reproduce Table 1).
	CollectTrace bool
	// MaxPasses bounds iteration (0 = default 64). The theory guarantees
	// convergence in 2 changing passes; the bound protects against
	// violations of the structured-loop preconditions.
	MaxPasses int
	// Fuel bounds the iteration's total flow applications: every node
	// visit debits one unit per tracked class, and when the remaining
	// budget cannot cover a visit the solve stops and degrades every tuple
	// to the claim-nothing value of the problem's polarity (must → ⊥,
	// may → ⊤), setting Result.FuelExhausted. Zero derives a budget from
	// MaxPasses·nodes·classes that can never bind, so by default fuel
	// changes nothing; an explicit budget gives a hard worst-case latency
	// bound for hostile or pathological inputs.
	Fuel int64
	// SkipInitPass suppresses the initialization pass for must-problems
	// (ablation: shows the init pass is required for 2-pass convergence).
	SkipInitPass bool
	// MayTopStart initializes a may-problem at ⊤ ("no instance") instead
	// of the paper's ⊥ ("all instances") start — the §3.3 ablation: the
	// exit function is not weakly idempotent in the reverse lattice, so
	// the iteration climbs the distance chain one pass per iteration and,
	// with an unknown loop bound, "could continue infinitely" (it hits
	// MaxPasses instead).
	MayTopStart bool
	// Facts supplies loop-invariant range facts to the preserve derivation,
	// letting symbolic kill-distance comparisons resolve (rangefacts). Nil
	// means no symbolic comparison resolves. The oracle participates in the
	// solve's semantics, so drivers must fold its Signature into any memo
	// key.
	Facts RangeOracle
}

// passLimit resolves MaxPasses' default.
func (o *Options) passLimit() int {
	if o.MaxPasses > 0 {
		return o.MaxPasses
	}
	return 64
}

// Solve computes the greatest fixed point of spec over g.
func Solve(g *ir.Graph, spec *Spec, opts *Options) *Result {
	if opts == nil {
		opts = &Options{}
	}
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return newSolveCtx(g).solve(spec, opts, sc)
}

// SolveAll solves several problem instances on one graph through a shared
// solve context: class discovery (per generate-predicate signature), node
// orderings, and the precedes bit matrix are computed once and reused by
// every spec. Results are returned in spec order and are identical to
// len(specs) independent Solve calls.
func SolveAll(g *ir.Graph, specs []*Spec, opts *Options) []*Result {
	if opts == nil {
		opts = &Options{}
	}
	out := make([]*Result, len(specs))
	ctx := newSolveCtx(g)
	ctx.shared = true
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	for i, spec := range specs {
		out[i] = ctx.solve(spec, opts, sc)
	}
	return out
}

// classTable is the class discovery for one generate predicate on one
// graph: the classes in first-occurrence order, a dense ref-ID →
// class-index array that replaces per-ref map lookups (-1 = not a member),
// and the per-array index.
type classTable struct {
	classes  []*Class
	refClass []int32
	// arrays holds each array's classes in class order, arrays in the order
	// of their first class; arrayOf maps an array name to its position in
	// arrays, and classArr/classPos give each class's array position and
	// its position within that array's list. A preserve distance exists
	// only between a class and a killer over the same array, so everything
	// that pairs the two goes through this index: discovery compares
	// subscripts within one array's classes, the compiler visits only the
	// classes over a killer's array, the preserve memo is laid out one
	// block per array, and ClassesOf answers the reuse extractors.
	arrays             [][]*Class
	arrayOf            map[string]int32
	classArr, classPos []int32
}

// buildClassTable groups the generating references of g under gen into
// equivalence classes (same array, same affine subscript form). Grouping
// compares polynomials with Equal, but only within the reference's own
// array's classes (the per-array index): cross-array comparisons can never
// match, and on wide problems (every statement its own array) they made
// discovery quadratic in the class count.
func buildClassTable(g *ir.Graph, gen func(*ir.Ref) bool) *classTable {
	ct := &classTable{
		classes:  make([]*Class, 0, 8),
		refClass: make([]int32, len(g.Refs)+1),
		arrayOf:  make(map[string]int32),
	}
	for i := range ct.refClass {
		ct.refClass[i] = -1
	}
	// Pass 1: assign classes. g.Refs is ID-ordered, so classes are
	// discovered (and indexed) in first-occurrence source order.
	total := 0
	for _, r := range g.Refs {
		if !gen(r) || !r.Affine || r.FromInner {
			continue
		}
		a, ok := ct.arrayOf[r.Array]
		if !ok {
			a = int32(len(ct.arrays))
			ct.arrayOf[r.Array] = a
			ct.arrays = append(ct.arrays, nil)
		}
		var c *Class
		for _, cand := range ct.arrays[a] {
			if cand.Form.A.Equal(r.Form.A) && cand.Form.B.Equal(r.Form.B) {
				c = cand
				break
			}
		}
		if c == nil {
			c = &Class{Index: len(ct.classes), Array: r.Array, Form: r.Form}
			ct.classes = append(ct.classes, c)
			ct.arrays[a] = append(ct.arrays[a], c)
		}
		ct.refClass[r.ID] = int32(c.Index)
		total++
	}
	// Pass 2: fill the member lists as views into one backing array (one
	// allocation instead of per-class append chains). Counting goes through
	// the already-assigned refClass, so no subscript comparisons re-run.
	counts := make([]int32, len(ct.classes)+1)
	for _, r := range g.Refs {
		if ci := ct.refClass[r.ID]; ci >= 0 {
			counts[ci+1]++
		}
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	backing := make([]*ir.Ref, total)
	next := make([]int32, len(ct.classes))
	copy(next, counts)
	for _, r := range g.Refs {
		if ci := ct.refClass[r.ID]; ci >= 0 {
			backing[next[ci]] = r
			next[ci]++
		}
	}
	for i, c := range ct.classes {
		c.Members = backing[counts[i]:counts[i+1]:counts[i+1]]
	}
	// Pass 3: each class's array and position within it, in one backing.
	m := len(ct.classes)
	place := make([]int32, 2*m)
	ct.classArr, ct.classPos = place[:m:m], place[m:]
	for a, cs := range ct.arrays {
		for pos, c := range cs {
			ct.classArr[c.Index], ct.classPos[c.Index] = int32(a), int32(pos)
		}
	}
	return ct
}

// adoptClasses installs a class table's views on the result.
func (res *Result) adoptClasses(ct *classTable) {
	res.Classes = ct.classes
	res.ct = ct
}

// ClassOf returns the class of a generating reference, or nil when the
// reference is not a class member. It answers from the table's dense
// ref-ID array; no map is built.
func (res *Result) ClassOf(r *ir.Ref) *Class {
	if ci := res.ct.refClass[r.ID]; ci >= 0 {
		return res.ct.classes[ci]
	}
	return nil
}

// InitIn returns the IN snapshot of the initialization pass, or nil unless
// the solve ran one under CollectTrace (may-problems and SkipInitPass run
// none). The slab is shared; callers must treat it as read-only.
func (res *Result) InitIn() []lattice.Tuple { return res.init.In }

// InitOut returns the OUT snapshot of the initialization pass; see InitIn.
func (res *Result) InitOut() []lattice.Tuple { return res.init.Out }

// --- Reporting --------------------------------------------------------------

// TupleTable renders IN/OUT rows for every node, in the style of the paper's
// Table 1. Pass -1 renders the fixed point; pass 0 the initialization pass
// and pass k ≥ 1 the k-th iteration snapshot, both recorded only under
// CollectTrace.
func (res *Result) TupleTable(pass int) string {
	var in, out []lattice.Tuple
	switch {
	case pass < 0:
		n := len(res.Graph.Nodes)
		in, out = res.rows.decode(0, n), res.rows.decode(1, n)
	case pass == 0:
		in, out = res.InitIn(), res.InitOut()
	default:
		if pass > len(res.Trace) {
			return fmt.Sprintf("<no trace for pass %d>", pass)
		}
		in, out = res.Trace[pass-1].In, res.Trace[pass-1].Out
	}
	if in == nil {
		return "<no snapshot>"
	}
	var b strings.Builder
	header := make([]string, len(res.Classes))
	for i, c := range res.Classes {
		header[i] = c.String()
	}
	fmt.Fprintf(&b, "%-8s tuples (%s)\n", "", strings.Join(header, ", "))
	// Rows are rendered straight into the builder (Tuple.WriteTo) rather
	// than through per-tuple Sprintf strings: on wide problems the rows
	// dominate the table's cost.
	for _, nd := range res.Graph.Nodes {
		fmt.Fprintf(&b, "IN [%d]  ", nd.ID)
		in[nd.ID].WriteTo(&b)
		b.WriteByte('\n')
		fmt.Fprintf(&b, "OUT[%d]  ", nd.ID)
		out[nd.ID].WriteTo(&b)
		b.WriteByte('\n')
	}
	return b.String()
}

// InAt returns the fixed point IN value of class c at node nd.
func (res *Result) InAt(nd *ir.Node, c *Class) lattice.Dist { return res.rows.at(0, nd.ID, c.Index) }

// OutAt returns the fixed point OUT value of class c at node nd.
func (res *Result) OutAt(nd *ir.Node, c *Class) lattice.Dist { return res.rows.at(1, nd.ID, c.Index) }

// ClassesOf returns the classes over the named array in class order (nil
// when it has none), from the class table's per-array index: reuse and
// dependence queries pair a reference only with classes over its own
// array, so they never scan the others. The slice is shared; callers must
// treat it as read-only.
func (res *Result) ClassesOf(array string) []*Class {
	if a, ok := res.ct.arrayOf[array]; ok {
		return res.ct.arrays[a]
	}
	return nil
}

// Pr returns pr(class, n) — 0 when a member of the class occurs in a node
// that precedes n in the body (for backward problems: that n precedes,
// since the reverse graph swaps the ordering), 1 otherwise. Reuse queries
// need it; it answers from the per-class bitset.
func (res *Result) Pr(c *Class, nd *ir.Node) int64 {
	if bitGet(res.prZero[c.Index], nd.ID) {
		return 0
	}
	return 1
}
