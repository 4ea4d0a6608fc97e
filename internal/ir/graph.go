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
	"slices"
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
	// evaluation order (RHS uses, the LHS definition, then condition uses;
	// a summary node's in its loop body's order): a run of the graph's Refs.
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

// Graph is the loop flow graph of a single loop. Build sets every field,
// and nothing writes a graph after it returns, so one graph can be shared
// read-only across goroutines.
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

	// reach, reachT and dom are packed bit matrices over node IDs, rows
	// bitWords words long, all over body edges (the exit → entry back edge
	// excluded): bit j of reach row i is set when node i strictly precedes
	// node j; reachT is its transpose (bit i of row j); bit a of dom row b
	// is set when a dominates b, a = b included. The packed rows let the
	// dataflow solver build per-class predecessor bitsets with word-wide
	// ORs instead of per-member Precedes calls.
	reach, reachT, dom []uint64
	bitWords           int
}

// Options configures graph construction.
type Options struct {
	// Dims supplies dimension-size polynomials per array for
	// multi-dimensional linearization; missing arrays get
	// sema.DefaultDims symbols.
	Dims map[string][]poly.Poly
}

// Build constructs the loop flow graph for loop. Nested loops become summary
// nodes. Non-affine subscripts are recorded on the Ref (Affine=false), not
// rejected, because the analyses treat them conservatively.
func Build(loop *ast.DoLoop, opts *Options) *Graph {
	if opts == nil {
		opts = &Options{}
	}
	g := &Graph{Loop: loop, IV: loop.Var, UB: loop.Hi}
	if v, ok := sema.ConstValue(loop.Hi); ok {
		g.UBConst, g.HasUB = v, true
	}
	b := &builder{g: g, w: refWalk{build: true}, opts: opts}
	_, tails := b.buildBlock(loop.Body)
	// The exit node; with an empty body it is also the entry.
	g.Exit = b.newNode(KindExit)
	g.Entry = g.Nodes[0]
	for _, t := range tails {
		b.edge(t, g.Exit)
	}
	// Back edge: exit → entry (a self-loop on the exit when the body is
	// empty).
	b.edge(g.Exit, g.Entry)
	g.relate()
	return g
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

// refWalk collects references without closures. RefExprs walks a whole
// body with it; Build walks each node's statement with it as it lays the
// node out, and so numbers the references in RefExprs' order.
type refWalk struct {
	out []*ast.ArrayRef
	// build is set for Build's walk, which also records the indices in out
	// of assignment targets (defs) and the loops walked, each before the
	// loops it encloses (loops).
	build bool
	defs  []int
	loops []*ast.DoLoop
}

func (w *refWalk) block(stmts []ast.Stmt) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ast.Assign:
			w.assign(st)
		case *ast.If:
			w.expr(st.Cond)
			w.block(st.Then)
			w.block(st.Else)
		case *ast.DoLoop:
			w.loop(st)
		}
	}
}

// assign records st's RHS references, then its LHS definition.
func (w *refWalk) assign(st *ast.Assign) {
	w.expr(st.RHS)
	if lhs, ok := st.LHS.(*ast.ArrayRef); ok {
		if w.build {
			w.defs = append(w.defs, len(w.out))
		}
		w.out = append(w.out, lhs)
	}
}

// loop records the references of dl's body, bounds excluded.
func (w *refWalk) loop(dl *ast.DoLoop) {
	if w.build {
		w.loops = append(w.loops, dl)
	}
	w.block(dl.Body)
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
	// w walks each node's statement as the node is laid out; number then
	// turns what it recorded into the node's references.
	w refWalk
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
			b.w.assign(st)
			b.number(n)
			link(n)

		case *ast.DoLoop:
			n := b.newNode(KindSummary)
			n.Loop = st
			b.w.loop(st)
			b.number(n)
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
			b.w.expr(st.Cond)
			b.number(site)

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

// number turns what the walk recorded since the last call into references
// of n, numbered on from the graph's last, and clears the walk. Assignment
// targets are definitions and every other reference a use. The walk
// records loops only for a summary node: the loops it stands for.
func (b *builder) number(n *Node) {
	w := &b.w
	refs := make([]Ref, len(w.out))
	n.Refs = slices.Grow(n.Refs, len(w.out))
	def := 0
	for i, expr := range w.out {
		r := &refs[i]
		*r = Ref{ID: len(b.g.Refs) + 1, Node: n, Kind: Use, Array: expr.Name, Expr: expr}
		if def < len(w.defs) && w.defs[def] == i {
			r.Kind = Def
			def++
		}
		b.linearize(r)
		if len(w.loops) > 0 {
			summarize(r, w.loops)
		}
		n.Refs = append(n.Refs, r)
		b.g.Refs = append(b.g.Refs, r)
	}
	w.out, w.defs, w.loops = w.out[:0], w.defs[:0], w.loops[:0]
}

// linearize sets r's affine form over the graph's induction variable when
// its subscripts have one. B may mention inner induction variables;
// summarize marks those references.
func (b *builder) linearize(r *Ref) {
	expr := r.Expr
	d := b.opts.Dims[expr.Name]
	if d == nil && len(expr.Subs) > 1 {
		if memo, ok := b.dims[expr.Name]; ok && len(memo) == len(expr.Subs) {
			d = memo
		} else {
			d = sema.DefaultDims(expr.Name, len(expr.Subs))
			if b.dims == nil {
				b.dims = make(map[string][]poly.Poly, 4)
			}
			b.dims[expr.Name] = d
		}
	}
	if form, err := sema.LinearAffine(expr, b.g.IV, d); err == nil {
		r.Form, r.Affine = form, true
	}
}

// summarize marks r, a reference inside the loops of nest (a summarized
// loop, then the loops it encloses in source order), FromInner when its
// subscripts involve one of their induction variables, and gives it a
// constant touched region when the inner bounds allow it.
func summarize(r *Ref, nest []*ast.DoLoop) {
	if !mentionsIV(r.Expr, nest) {
		return
	}
	r.FromInner = true
	r.InnerAffine = r.Affine
	r.Affine = false
	// Constant touched region (§3.2 refinement): 1-D subscript a·v + c
	// over a single inner variable v ∈ [1, hi].
	if len(r.Expr.Subs) != 1 {
		return
	}
	p, err := sema.ExprToPoly(r.Expr.Subs[0])
	if err != nil {
		return
	}
	syms := p.Symbols()
	if len(syms) != 1 {
		return
	}
	v := syms[0]
	hi, ok := constTrip(nest, v)
	if !ok || hi < 1 {
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
	first, last := a*1+c, a*hi+c
	if first > last {
		first, last = last, first
	}
	r.HasRegion = true
	r.RegionLo, r.RegionHi = first, last
}

// mentionsIV reports whether a subscript of ref involves the induction
// variable of a loop in nest: a symbol of its polynomial or, when it is
// not a polynomial, any identifier it names.
func mentionsIV(ref *ast.ArrayRef, nest []*ast.DoLoop) bool {
	for _, sub := range ref.Subs {
		if p, err := sema.ExprToPoly(sub); err == nil {
			for _, s := range p.Symbols() {
				if isIV(s, nest) {
					return true
				}
			}
		} else if namesIV(sub, nest) {
			return true
		}
	}
	return false
}

// namesIV reports whether e names the induction variable of a loop in
// nest, inside subscripts too.
func namesIV(e ast.Expr, nest []*ast.DoLoop) bool {
	switch ex := e.(type) {
	case *ast.Ident:
		return ex.Name != "_" && isIV(ex.Name, nest)
	case *ast.ArrayRef:
		for _, sub := range ex.Subs {
			if namesIV(sub, nest) {
				return true
			}
		}
	case *ast.Binary:
		return namesIV(ex.L, nest) || namesIV(ex.R, nest)
	case *ast.Unary:
		return namesIV(ex.X, nest)
	}
	return false
}

func isIV(name string, nest []*ast.DoLoop) bool {
	for _, dl := range nest {
		if dl.Var == name {
			return true
		}
	}
	return false
}

// constTrip returns the constant upper bound of the last loop of nest over
// v that runs from 1 in unit steps to a constant (normalized loops run
// from 1).
func constTrip(nest []*ast.DoLoop, v string) (int64, bool) {
	for k := len(nest) - 1; k >= 0; k-- {
		dl := nest[k]
		if dl.Var != v || dl.Step != nil {
			continue
		}
		lo, okLo := sema.ConstValue(dl.Lo)
		hi, okHi := sema.ConstValue(dl.Hi)
		if okLo && okHi && lo == 1 {
			return hi, true
		}
	}
	return 0, false
}

// relate fills the body-edge relations with one dynamic program each over
// node IDs. The entry is 1, the exit last, every body edge rises in ID and
// every node but the entry has a predecessor (TestEdgesRiseInID), so each
// row reads only rows finished before it, and one pass builds it:
//
//   - reach(v) = ∪ over successors s of {s} ∪ reach(s), in decreasing ID,
//     with the exit contributing nothing (its one successor is the back
//     edge's target);
//   - reachT(v) = ∪ over predecessors p ≠ exit of {p} ∪ reachT(p), in
//     increasing ID;
//   - dom(v) = {v} ∪ ∩ over predecessors p ≠ exit of dom(p), in increasing
//     ID, so dom(entry) = {entry}.
//
// An edge costs one operation per row word, O(e·n/64) word operations in
// all.
func (g *Graph) relate() {
	n := len(g.Nodes)
	w := (n + 64) / 64 // room for bits 0..n
	m := (n + 1) * w
	rows := make([]uint64, 3*m)
	g.bitWords = w
	g.reach, g.reachT, g.dom = rows[:m:m], rows[m:2*m:2*m], rows[2*m:]
	row := func(rel []uint64, id int) []uint64 { return rel[id*w : (id+1)*w] }
	for id := n - 1; id >= 1; id-- { // the exit, n, reaches nothing
		r := row(g.reach, id)
		for _, s := range g.Nodes[id-1].Succs {
			orRow(r, row(g.reach, s.ID))
			setBit(r, s.ID)
		}
	}
	for _, v := range g.Nodes {
		r, d := row(g.reachT, v.ID), row(g.dom, v.ID)
		first := true
		for _, p := range v.Preds {
			if p == g.Exit {
				continue // the back edge
			}
			orRow(r, row(g.reachT, p.ID))
			setBit(r, p.ID)
			if first {
				copy(d, row(g.dom, p.ID))
				first = false
			} else {
				andRow(d, row(g.dom, p.ID))
			}
		}
		setBit(d, v.ID)
	}
}

// orRow ORs src into dst word by word.
func orRow(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

// andRow ANDs src into dst word by word.
func andRow(dst, src []uint64) {
	for i := range dst {
		dst[i] &= src[i]
	}
}

func setBit(row []uint64, id int) { row[id>>6] |= 1 << (uint(id) & 63) }

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
// reachability and dominance tables. The AST it points into is not
// counted.
func (g *Graph) HeldBytes() int {
	const ptr = int(unsafe.Sizeof(uintptr(0)))
	n := len(g.Nodes)*(int(unsafe.Sizeof(Node{}))+ptr) + len(g.Refs)*(int(unsafe.Sizeof(Ref{}))+2*ptr)
	for _, nd := range g.Nodes {
		n += (len(nd.Succs) + len(nd.Preds)) * ptr
	}
	return n + 8*(len(g.reach)+len(g.reachT)+len(g.dom))
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
	return a != b && g.dom[b.ID*g.bitWords+(a.ID>>6)]&(1<<(uint(a.ID)&63)) != 0
}

// Pr is the paper's predecessor predicate: 0 when ref's node strictly
// precedes n in the loop body, 1 otherwise.
func (g *Graph) Pr(ref *Ref, n *Node) int64 {
	if g.Precedes(ref.Node, n) {
		return 0
	}
	return 1
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
