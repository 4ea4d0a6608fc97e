// Package ir builds the loop flow graph FG = (N, E) of paper §3.
//
// Nodes denote statements in the loop body or summary nodes standing for
// nested loops; a distinguished exit node carries the induction-variable
// increment i := i+1 and closes the single cycle exit → entry. Graphs are
// built hierarchically: the innermost loops are analyzed on their own
// graphs, and appear as summary nodes in the graph of each enclosing loop,
// so no graph ever contains nested cyclic control flow.
//
// Node granularity follows the paper's Figure 3: each assignment or nested
// loop is one node, and the test of an IF is folded into the immediately
// preceding node of the same block when one exists (the paper's node 2 holds
// both "B[2i] := C[i]+X" and the branch "if C[i]"); an IF that begins a
// block gets a dedicated condition node.
package ir

import (
	"fmt"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/poly"
	"repro/internal/sema"
)

// NodeKind classifies graph nodes.
type NodeKind int

const (
	// KindStmt is an assignment node (possibly carrying a folded branch
	// condition).
	KindStmt NodeKind = iota
	// KindCond is a pure condition node (an IF that begins a block).
	KindCond
	// KindSummary stands for a nested loop.
	KindSummary
	// KindExit is the unique increment node i := i+1.
	KindExit
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case KindStmt:
		return "stmt"
	case KindCond:
		return "cond"
	case KindSummary:
		return "summary"
	case KindExit:
		return "exit"
	}
	return "?"
}

// RefKind distinguishes definitions (stores) from uses (loads).
type RefKind int

const (
	// Def is a definition: the reference appears as an assignment target.
	Def RefKind = iota
	// Use is a use: the reference appears in an expression.
	Use
)

// String names the reference kind.
func (k RefKind) String() string {
	if k == Def {
		return "def"
	}
	return "use"
}

// Ref is one textual subscripted reference occurring in a node.
type Ref struct {
	// ID is the 1-based index of the reference within the graph, assigned
	// in source order (defs and uses interleaved as encountered).
	ID   int
	Node *Node
	Kind RefKind
	// Array is the referenced array's name.
	Array string
	// Expr is the syntactic reference.
	Expr *ast.ArrayRef
	// Form is the linearized affine subscript with respect to the graph's
	// induction variable; valid only when Affine is true.
	Form   sema.AffineForm
	Affine bool
	// FromInner is set on references collected out of a summarized inner
	// loop whose subscripts involve that loop's induction variable. Such
	// references cannot generate in the enclosing analysis but kill
	// conservatively (paper §3.2).
	FromInner bool
	// InnerAffine preserves, for FromInner references, whether the
	// linearized Form (over the ENCLOSING loop's induction variable, with
	// inner induction variables left as free symbols of B) was computed
	// successfully before Affine was cleared. The race certifier's nest
	// footprint analysis consumes the Form only under this flag — Affine
	// alone is not enough, because a failed linearization leaves a
	// zero-value Form that would silently read as "constant subscript 0".
	InnerAffine bool
	// HasRegion marks FromInner references whose touched address range is
	// a compile-time constant interval [RegionLo, RegionHi] — computable
	// when the subscript is affine in an inner induction variable with
	// constant coefficients and the inner loop bound is constant. The
	// paper lists exploiting inner bounds for "more accurate killing
	// information in an enclosing loop" as under investigation (§3.2);
	// this implements the constant-bounds case.
	HasRegion          bool
	RegionLo, RegionHi int64
}

// String renders the reference for diagnostics, e.g. "def C[i+2]@n3".
func (r *Ref) String() string {
	return fmt.Sprintf("%s %s@n%d", r.Kind, ast.ExprString(r.Expr), r.Node.ID)
}

// Node is a loop flow graph node.
type Node struct {
	ID   int // 1-based; the exit node is always the highest ID
	Kind NodeKind

	// Assign is set for KindStmt nodes.
	Assign *ast.Assign
	// Cond is the branch condition attached to this node (KindStmt with a
	// folded IF, or KindCond). Nil when the node does not branch.
	Cond ast.Expr
	// Loop is set for KindSummary nodes.
	Loop *ast.DoLoop

	Succs []*Node
	Preds []*Node

	// Refs are the subscripted references occurring in this node, in
	// evaluation order (RHS uses, LHS subscript uses, LHS def, then
	// condition uses).
	Refs []*Ref
}

// Label renders the node's content for display.
func (n *Node) Label() string {
	var parts []string
	switch n.Kind {
	case KindStmt:
		s := strings.TrimRight(ast.StmtString(n.Assign, 0), "\n")
		parts = append(parts, s)
	case KindSummary:
		parts = append(parts, fmt.Sprintf("do %s ... enddo", n.Loop.Var))
	case KindExit:
		parts = append(parts, "i := i+1 (exit)")
	}
	if n.Cond != nil {
		parts = append(parts, "if "+ast.ExprString(n.Cond))
	}
	if len(parts) == 0 {
		parts = append(parts, "<empty>")
	}
	return strings.Join(parts, "; ")
}

// Defs returns the definition references of the node.
func (n *Node) Defs() []*Ref {
	var out []*Ref
	for _, r := range n.Refs {
		if r.Kind == Def {
			out = append(out, r)
		}
	}
	return out
}

// Uses returns the use references of the node.
func (n *Node) Uses() []*Ref {
	var out []*Ref
	for _, r := range n.Refs {
		if r.Kind == Use {
			out = append(out, r)
		}
	}
	return out
}

// Graph is the loop flow graph of a single loop.
type Graph struct {
	// Loop is the analyzed DO loop.
	Loop *ast.DoLoop
	// IV is the loop's induction variable name.
	IV string
	// UB is the loop's upper-bound expression; UBConst holds its value when
	// it is a compile-time constant (HasUB reports that).
	UB      ast.Expr
	UBConst int64
	HasUB   bool

	// Nodes in construction order; Nodes[0] is the entry, the last node is
	// the exit node. IDs are 1-based positions in this slice.
	Nodes []*Node
	// Entry is the first node of the body; Exit is the increment node.
	Entry *Node
	Exit  *Node
	// Refs are all subscripted references in ID order.
	Refs []*Ref
	// InnerIVs is the set of induction variables of summarized inner loops.
	InnerIVs map[string]bool

	// reach and reachT are the body-edge reachability relation (excluding
	// the exit→entry back edge) as packed bit matrices: bit j of row i in
	// reach is set when node ID i strictly precedes node ID j; reachT is the
	// transpose (bit i of row j). Rows are bitWords words long. The packed
	// form lets the dataflow solver build per-class predecessor bitsets with
	// word-wide ORs instead of per-member Precedes calls.
	reach    []uint64
	reachT   []uint64
	bitWords int
	// doms is the dominance relation over body edges as a packed bit
	// matrix (computed lazily): bit a of row b is set when node ID a
	// dominates node ID b. Rows are domWords words long and live in one
	// backing array.
	doms     []uint64
	domWords int
	// rpo caches the reverse postorder (built with the reachability
	// matrices, whose DPs walk it; solvers request it once per problem
	// instance).
	rpo []*Node
}

// Options configures graph construction.
type Options struct {
	// Dims supplies dimension-size polynomials per array for
	// multi-dimensional linearization; missing arrays get
	// sema.DefaultDims symbols.
	Dims map[string][]poly.Poly
}

// Build constructs the loop flow graph for loop. Nested loops become summary
// nodes. The error reports structural problems only; non-affine subscripts
// are recorded on the Ref (Affine=false), not rejected, because the
// analyses treat them conservatively.
func Build(loop *ast.DoLoop, opts *Options) (*Graph, error) {
	if opts == nil {
		opts = &Options{}
	}
	g := &Graph{Loop: loop, IV: loop.Var, UB: loop.Hi, InnerIVs: map[string]bool{}}
	if v, ok := sema.ConstValue(loop.Hi); ok {
		g.UBConst, g.HasUB = v, true
	}
	b := &builder{g: g, opts: opts}

	heads, tails := b.buildBlock(loop.Body)

	// Exit node.
	exit := b.newNode(KindExit)
	g.Exit = exit
	if len(g.Nodes) == 1 {
		// Empty body: the exit node is also the entry.
		g.Entry = exit
	} else {
		g.Entry = g.Nodes[0]
	}
	_ = heads // heads[0], when present, is Nodes[0] by construction order
	for _, t := range tails {
		b.edge(t, exit)
	}
	// Back edge: exit → entry (when the body is non-empty; a self-loop on
	// the exit node otherwise).
	b.edge(exit, g.Entry)

	g.computeReach()
	return g, b.err
}

// RefExprs returns the subscripted references of loop's body in the order
// Build numbers them: Build(loop).Refs[k].Expr is RefExprs(loop)[k]. Each
// assignment contributes its RHS references, then its LHS definition; an
// IF its condition's references, then its branches; a nested loop its
// body, bounds excluded. A graph depends on its loop's content alone, so
// loops of the same content can share one, and each reads its own source
// positions through this table.
func RefExprs(loop *ast.DoLoop) []*ast.ArrayRef {
	var w refWalk
	w.block(loop.Body)
	return w.out
}

// refWalk collects references without closures, once per analyzed loop.
type refWalk struct{ out []*ast.ArrayRef }

func (w *refWalk) block(stmts []ast.Stmt) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ast.Assign:
			w.expr(st.RHS)
			if lhs, ok := st.LHS.(*ast.ArrayRef); ok {
				w.out = append(w.out, lhs)
			}
		case *ast.If:
			w.expr(st.Cond)
			w.block(st.Then)
			w.block(st.Else)
		case *ast.DoLoop:
			w.block(st.Body)
		}
	}
}

// expr records the outermost references of e: subscripts of a subscripted
// reference are not references of the loop.
func (w *refWalk) expr(e ast.Expr) {
	switch ex := e.(type) {
	case *ast.ArrayRef:
		w.out = append(w.out, ex)
	case *ast.Binary:
		w.expr(ex.L)
		w.expr(ex.R)
	case *ast.Unary:
		w.expr(ex.X)
	}
}

type builder struct {
	g    *Graph
	opts *Options
	err  error
	// dims memoizes sema.DefaultDims per array so multi-dimensional
	// references don't rebuild the symbolic dimension polynomials per ref.
	dims map[string][]poly.Poly
}

func (b *builder) newNode(kind NodeKind) *Node {
	n := &Node{ID: len(b.g.Nodes) + 1, Kind: kind}
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

func (b *builder) edge(from, to *Node) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// buildBlock lays out a statement list. It returns the heads (nodes that
// receive control entering the block; at most one for non-empty blocks) and
// the tails (nodes whose control falls out of the block).
func (b *builder) buildBlock(stmts []ast.Stmt) (heads, tails []*Node) {
	var frontier []*Node // dangling tails awaiting the next node
	link := func(n *Node) {
		if frontier == nil && heads == nil {
			heads = []*Node{n}
		}
		for _, f := range frontier {
			b.edge(f, n)
		}
		frontier = []*Node{n}
	}

	for _, s := range stmts {
		switch st := s.(type) {
		case *ast.Assign:
			n := b.newNode(KindStmt)
			n.Assign = st
			b.collectAssignRefs(n, st)
			link(n)

		case *ast.DoLoop:
			n := b.newNode(KindSummary)
			n.Loop = st
			b.g.InnerIVs[st.Var] = true
			b.collectSummaryRefs(n, st)
			link(n)

		case *ast.Dim:
			// Declarations carry no control flow or references.

		case *ast.If:
			// Fold the test into the current frontier node when it is a
			// single plain node of this block; otherwise make a cond node.
			var site *Node
			if len(frontier) == 1 && frontier[0].Kind == KindStmt && frontier[0].Cond == nil {
				site = frontier[0]
			} else {
				site = b.newNode(KindCond)
				link(site)
			}
			site.Cond = st.Cond
			b.collectExprRefs(site, st.Cond)

			next := b.arm(site, st.Then)
			next = append(next, b.arm(site, st.Else)...)
			frontier = dedupNodes(next)
		}
	}
	return heads, frontier
}

// arm lays out one branch of the if at site and returns its tails. A
// branch that lays out no node — absent, empty, or declarations only —
// returns the site itself: control falls through it, so the statement
// after the if keeps that path.
func (b *builder) arm(site *Node, stmts []ast.Stmt) []*Node {
	heads, tails := b.buildBlock(stmts)
	if len(heads) == 0 {
		return []*Node{site}
	}
	for _, h := range heads {
		b.edge(site, h)
	}
	return tails
}

func dedupNodes(ns []*Node) []*Node {
	seen := map[*Node]bool{}
	out := ns[:0]
	for _, n := range ns {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// collectAssignRefs records the subscripted references of an assignment in
// evaluation order: RHS uses first, then the LHS definition.
func (b *builder) collectAssignRefs(n *Node, st *ast.Assign) {
	b.collectExprRefs(n, st.RHS)
	if lhs, ok := st.LHS.(*ast.ArrayRef); ok {
		b.addRef(n, Def, lhs, false)
	}
}

// collectExprRefs records every array reference in e as a use of node n.
func (b *builder) collectExprRefs(n *Node, e ast.Expr) {
	ast.InspectExpr(e, func(nd ast.Node) bool {
		if ref, ok := nd.(*ast.ArrayRef); ok {
			b.addRef(n, Use, ref, false)
			return false // subscripts of a subscripted ref are not refs of i
		}
		return true
	})
}

// collectSummaryRefs records every array reference inside a nested loop on
// its summary node. References whose subscripts involve the inner loop's
// induction variables are marked FromInner, and get a constant touched
// region when the inner bounds allow it.
func (b *builder) collectSummaryRefs(n *Node, loop *ast.DoLoop) {
	inner := map[string]bool{loop.Var: true}
	// Constant iteration ranges of the inner loops: var → upper bound
	// (normalized loops run from 1).
	bounds := map[string]int64{}
	noteLoop := func(dl *ast.DoLoop) {
		inner[dl.Var] = true
		lo, okLo := sema.ConstValue(dl.Lo)
		hi, okHi := sema.ConstValue(dl.Hi)
		if okLo && okHi && lo == 1 && dl.Step == nil {
			bounds[dl.Var] = hi
		}
	}
	noteLoop(loop)
	ast.Inspect(loop.Body, func(nd ast.Node) bool {
		if dl, ok := nd.(*ast.DoLoop); ok {
			noteLoop(dl)
		}
		return true
	})
	var walk func(stmts []ast.Stmt)
	walk = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *ast.Assign:
				b.collectSummaryExpr(n, st.RHS, inner, bounds)
				if lhs, ok := st.LHS.(*ast.ArrayRef); ok {
					b.addSummaryRef(n, Def, lhs, inner, bounds)
				}
			case *ast.If:
				b.collectSummaryExpr(n, st.Cond, inner, bounds)
				walk(st.Then)
				walk(st.Else)
			case *ast.DoLoop:
				walk(st.Body)
			}
		}
	}
	walk(loop.Body)
}

func (b *builder) collectSummaryExpr(n *Node, e ast.Expr, inner map[string]bool, bounds map[string]int64) {
	ast.InspectExpr(e, func(nd ast.Node) bool {
		if ref, ok := nd.(*ast.ArrayRef); ok {
			b.addSummaryRef(n, Use, ref, inner, bounds)
			return false
		}
		return true
	})
}

func (b *builder) addSummaryRef(n *Node, kind RefKind, expr *ast.ArrayRef, inner map[string]bool, bounds map[string]int64) {
	r := b.addRef(n, kind, expr, false)
	fromInner := false
	for _, s := range refSymbols(expr) {
		if inner[s] {
			fromInner = true
			break
		}
	}
	if !fromInner {
		return
	}
	r.FromInner = true
	r.InnerAffine = r.Affine
	r.Affine = false
	// Constant touched region (§3.2 refinement): 1-D subscript a·v + c
	// over a single inner variable v ∈ [1, bounds[v]].
	if len(expr.Subs) != 1 {
		return
	}
	p, err := sema.ExprToPoly(expr.Subs[0])
	if err != nil {
		return
	}
	syms := p.Symbols()
	if len(syms) != 1 {
		return
	}
	v := syms[0]
	hiBound, ok := bounds[v]
	if !ok || hiBound < 1 {
		return
	}
	coeff, rest, ok := p.CoeffOf(v)
	if !ok {
		return
	}
	a, okA := coeff.IsConst()
	c, okC := rest.IsConst()
	if !okA || !okC {
		return
	}
	first, last := a*1+c, a*hiBound+c
	if first > last {
		first, last = last, first
	}
	r.HasRegion = true
	r.RegionLo, r.RegionHi = first, last
}

func refSymbols(ref *ast.ArrayRef) []string {
	set := map[string]bool{}
	for _, sub := range ref.Subs {
		if p, err := sema.ExprToPoly(sub); err == nil {
			for _, s := range p.Symbols() {
				set[s] = true
			}
		} else {
			// Non-polynomial subscript: record every identifier mentioned.
			ast.InspectExpr(sub, func(nd ast.Node) bool {
				if id, ok := nd.(*ast.Ident); ok && id.Name != "_" {
					set[id.Name] = true
				}
				return true
			})
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func (b *builder) addRef(n *Node, kind RefKind, expr *ast.ArrayRef, fromInner bool) *Ref {
	r := &Ref{
		ID:        len(b.g.Refs) + 1,
		Node:      n,
		Kind:      kind,
		Array:     expr.Name,
		Expr:      expr,
		FromInner: fromInner,
	}
	dims := b.opts.Dims[expr.Name]
	if dims == nil && len(expr.Subs) > 1 {
		if d, ok := b.dims[expr.Name]; ok && len(d) == len(expr.Subs) {
			dims = d
		} else {
			dims = sema.DefaultDims(expr.Name, len(expr.Subs))
			if b.dims == nil {
				b.dims = make(map[string][]poly.Poly, 4)
			}
			b.dims[expr.Name] = dims
		}
	}
	form, err := sema.LinearAffine(expr, b.g.IV, dims)
	if err == nil {
		// The form must not mention the IV in its coefficients (guaranteed
		// by LinearAffine) — but B may mention inner IVs; the caller marks
		// those separately.
		r.Form, r.Affine = form, true
	}
	n.Refs = append(n.Refs, r)
	b.g.Refs = append(b.g.Refs, r)
	return r
}

// computeReach fills the body-edge reachability relation used by the pr
// predicate. The exit→entry back edge is excluded, so the relation is a DAG
// reachability: bit j of row i ⇔ node i strictly precedes node j on some
// path. Both the forward matrix and its transpose are built, packed 64 node
// IDs per word, by two word-parallel dynamic programs over the body DAG:
//
//   - reach(v) = ∪ over successors s of {s} ∪ reach(s), in reverse
//     topological order, with the exit contributing nothing (its only
//     successor is the back edge's target);
//   - reachT(v) = ∪ over predecessors p ≠ exit of {p} ∪ reachT(p), in
//     topological order.
//
// Every node is reachable from the entry in a structured body, so the
// reverse postorder is a topological order of the body DAG: each row is
// finished before any row that reads it. An edge costs one OR per row
// word, O(e·n/64) word operations in all.
func (g *Graph) computeReach() {
	n := len(g.Nodes)
	w := (n + 1 + 63) / 64
	g.bitWords = w
	g.reach = make([]uint64, (n+1)*w)
	g.reachT = make([]uint64, (n+1)*w)
	order := g.RPO()
	for k := len(order) - 1; k >= 0; k-- {
		v := order[k]
		if v == g.Exit {
			continue
		}
		row := g.reach[v.ID*w : (v.ID+1)*w]
		for _, s := range v.Succs {
			orRow(row, g.reach[s.ID*w:(s.ID+1)*w])
			row[s.ID>>6] |= 1 << (uint(s.ID) & 63)
		}
	}
	for _, v := range order {
		row := g.reachT[v.ID*w : (v.ID+1)*w]
		for _, p := range v.Preds {
			if p == g.Exit {
				continue // the back edge
			}
			orRow(row, g.reachT[p.ID*w:(p.ID+1)*w])
			row[p.ID>>6] |= 1 << (uint(p.ID) & 63)
		}
	}
}

// orRow ORs src into dst word by word.
func orRow(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

// Precedes reports whether node a strictly precedes node b along body edges
// (the pr predicate's "occurs in a predecessor node": pr(d,n)=0 iff
// Precedes(d.Node, n)).
func (g *Graph) Precedes(a, b *Node) bool {
	return g.reach[a.ID*g.bitWords+(b.ID>>6)]&(1<<(uint(b.ID)&63)) != 0
}

// BitWords returns the word length of the per-node bitset rows returned by
// PrecedesRow and PrecededByRow (bit index = node ID).
func (g *Graph) BitWords() int { return g.bitWords }

// HeldBytes estimates the memory the graph holds, counted from its lengths:
// node and reference records, edge and reference lists, and the
// reachability, dominance and order tables. The AST it points into is not
// counted.
func (g *Graph) HeldBytes() int {
	const ptr = int(unsafe.Sizeof(uintptr(0)))
	n := len(g.Nodes)*(int(unsafe.Sizeof(Node{}))+ptr) + len(g.Refs)*(int(unsafe.Sizeof(Ref{}))+2*ptr)
	for _, nd := range g.Nodes {
		n += (len(nd.Succs) + len(nd.Preds)) * ptr
	}
	return n + 8*(len(g.reach)+len(g.reachT)+len(g.doms)) + ptr*len(g.rpo)
}

// PrecedesRow returns the bitset of node IDs that node id strictly precedes
// along body edges. The returned slice aliases the graph's matrix: callers
// must treat it as read-only.
func (g *Graph) PrecedesRow(id int) []uint64 {
	return g.reach[id*g.bitWords : (id+1)*g.bitWords]
}

// PrecededByRow returns the bitset of node IDs that strictly precede node
// id along body edges (the transpose row). Read-only, like PrecedesRow.
func (g *Graph) PrecededByRow(id int) []uint64 {
	return g.reachT[id*g.bitWords : (id+1)*g.bitWords]
}

// Dominates reports whether every body path from the loop entry to b passes
// through a, with a ≠ b (strict dominance over body edges). Distance-0
// reuse queries need dominance rather than some-path precedence: a
// generator on only one branch does not guarantee the current iteration's
// instance.
func (g *Graph) Dominates(a, b *Node) bool {
	if g.doms == nil {
		g.computeDominators()
	}
	if a == b {
		return false
	}
	w := g.domWords
	return g.doms[b.ID*w+a.ID>>6]&(1<<(uint(a.ID)&63)) != 0
}

// Precompute forces every lazily-built relation (currently the dominator
// sets; body reachability and the reverse postorder are built with the
// graph). A graph that has been precomputed is never mutated by queries
// again, so it can be shared read-only across goroutines — the memoizing
// driver publishes graphs to its cache only after calling this.
func (g *Graph) Precompute() {
	if g.doms == nil {
		g.computeDominators()
	}
}

// computeDominators runs the standard iterative dominator computation over
// the acyclic body (back edge excluded), seeding Dom(entry) = {entry}.
func (g *Graph) computeDominators() {
	n := len(g.Nodes)
	w := (n + 64) / 64 // room for bits 0..n
	g.domWords = w
	doms := make([]uint64, (n+1)*w)
	g.doms = doms
	row := func(id int) []uint64 { return doms[id*w : (id+1)*w] }
	setBit := func(r []uint64, id int) { r[id>>6] |= 1 << (uint(id) & 63) }
	full := make([]uint64, w)
	for i := 1; i <= n; i++ {
		setBit(full, i)
	}
	for _, nd := range g.Nodes {
		if nd == g.Entry {
			setBit(row(nd.ID), nd.ID)
		} else {
			copy(row(nd.ID), full)
		}
	}
	scratch := make([]uint64, w)
	order := g.RPO()
	for changed := true; changed; {
		changed = false
		for _, nd := range order {
			if nd == g.Entry {
				continue
			}
			first := true
			for _, p := range nd.Preds {
				if p == g.Exit {
					continue // back edge source never reaches body nodes forward
				}
				pr := row(p.ID)
				if first {
					copy(scratch, pr)
					first = false
				} else {
					for i := range scratch {
						scratch[i] &= pr[i]
					}
				}
			}
			if first {
				// No body predecessors (only reachable via back edge):
				// dominated by entry alone.
				for i := range scratch {
					scratch[i] = 0
				}
				setBit(scratch, g.Entry.ID)
			}
			setBit(scratch, nd.ID)
			dst := row(nd.ID)
			same := true
			for i := range scratch {
				if scratch[i] != dst[i] {
					same = false
					break
				}
			}
			if !same {
				copy(dst, scratch)
				changed = true
			}
		}
	}
}

// Pr is the paper's predecessor predicate: 0 when ref's node strictly
// precedes n in the loop body, 1 otherwise.
func (g *Graph) Pr(ref *Ref, n *Node) int64 {
	if g.Precedes(ref.Node, n) {
		return 0
	}
	return 1
}

// RPO returns the nodes in reverse postorder of the body DAG starting at the
// entry, with the exit node last. Construction order already satisfies this
// for structured programs, but RPO recomputes it from the edges to stay
// correct under transformation.
func (g *Graph) RPO() []*Node {
	if g.rpo != nil {
		return g.rpo
	}
	seen := make([]bool, len(g.Nodes)+1)
	post := make([]*Node, 0, len(g.Nodes))
	var dfs func(n *Node)
	dfs = func(n *Node) {
		seen[n.ID] = true
		for _, s := range n.Succs {
			if n == g.Exit {
				continue
			}
			if !seen[s.ID] {
				dfs(s)
			}
		}
		post = append(post, n)
	}
	dfs(g.Entry)
	// Unreachable nodes (should not happen) are appended at the end.
	for _, n := range g.Nodes {
		if !seen[n.ID] {
			post = append([]*Node{n}, post...)
		}
	}
	out := make([]*Node, len(post))
	for i, n := range post {
		out[len(post)-1-i] = n
	}
	// Cache: the order is a pure function of the (immutable) edge lists,
	// and every solver pass requests it. Callers must not mutate it.
	g.rpo = out
	return out
}

// DefsOf returns all definition refs of the named array.
func (g *Graph) DefsOf(array string) []*Ref {
	var out []*Ref
	for _, r := range g.Refs {
		if r.Kind == Def && r.Array == array {
			out = append(out, r)
		}
	}
	return out
}

// Dump renders the graph in a compact human-readable form.
func (g *Graph) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loop %s = 1..%s (%d nodes, %d refs)\n", g.IV, ast.ExprString(g.UB), len(g.Nodes), len(g.Refs))
	for _, n := range g.Nodes {
		succ := make([]string, len(n.Succs))
		for i, s := range n.Succs {
			succ[i] = fmt.Sprintf("n%d", s.ID)
		}
		fmt.Fprintf(&b, "  n%d [%s] %s -> %s\n", n.ID, n.Kind, n.Label(), strings.Join(succ, ","))
		for _, r := range n.Refs {
			aff := ""
			if r.Affine {
				aff = " " + r.Form.String()
			} else {
				aff = " (non-affine)"
			}
			fmt.Fprintf(&b, "      r%d %s %s%s\n", r.ID, r.Kind, ast.ExprString(r.Expr), aff)
		}
	}
	return b.String()
}
