// The solver: the paper's framework run one class at a time, over that
// class's own events only.
//
//   - The paper has two flow functions, generate max(x, 0) and preserve
//     min(x, p), and classes never interact, so every (node, class) flow
//     function collapses to one clamp x ↦ min(max(x, lo), hi). The compiler
//     folds each (node, class) straight to its (lo, hi, gen) triple in a
//     sparse per-solve list. Membership tests go through a dense ref-ID →
//     class-index array, never a map[*ir.Ref].
//   - A class's value can change only at its own clamps, at the exit node's
//     increment, at position 0 (which reads the back edge) and at joins
//     whose inputs disagree. ir.Build numbers nodes so that every body edge
//     rises in ID, so ID order (reversed for backward problems) is a
//     topological order of the body and its passes are the paper's passes.
//     Each class is walked over just those points; every other node passes
//     the value of the point before it on unchanged.
//   - Values are the lattice's codes (lattice.Code), on which meets and
//     clamps are integer min and max. Each class's walk appends its change
//     points straight into the stored form.
//   - pr(class, node) is a per-class bitset built by straight-line word ORs
//     over the graph's packed precedes rows, one pass over the references.
//
// The counters are those of a pass over every node and class. Classes are
// independent, so the changed passes are the most any class needs, the
// passes one more (at most MaxPasses), and each pass visits every node and
// applies m flow functions there. Every solve carries a fuel budget
// (Options.Fuel) of flow applications. When those passes would need more,
// the solve is exhausted after as many node visits as the budget covers,
// and every tuple degrades to the claim-nothing value of the problem's
// polarity (must → ⊥ "no instance", may → ⊤ "all instances"), so
// downstream consumers can only lose precision, never soundness. The
// default budget is derived from MaxPasses·nodes·classes and can never
// bind.
//
// A solveCtx is shareable across problem instances on the same graph:
// SolveAll reuses class discovery (per generate-predicate signature), the
// join table of each direction, and the pr bitsets across the four standard
// problems.
package dataflow

import (
	"time"

	"repro/internal/ir"
	"repro/internal/lattice"
	"repro/internal/sema"
)

// solveCtx carries everything derivable from the graph alone, shared by all
// specs solved through one SolveAll call.
type solveCtx struct {
	g *ir.Graph
	n int
	// next holds the join table of each direction (forward, backward),
	// built on first use.
	next [2][]int32

	// shared marks a context that solves several specs (SolveAll): only
	// then do the memo tables below get built. A single-spec context skips
	// the signature keys and memo maps entirely — there is nothing to
	// share with.
	shared bool
	// tables memoizes class discovery by generate-predicate signature (the
	// Gen bitmask over g.Refs): specs with the same signature — e.g.
	// must-reaching defs and δ-busy stores, both G = defs — share one table.
	tables map[string]*classTable
	// prZero memoizes the per-class pr bitsets by (table, direction).
	prZero map[prKey][][]uint64
}

type prKey struct {
	table    *classTable
	backward bool
}

func newSolveCtx(g *ir.Graph) *solveCtx {
	return &solveCtx{g: g, n: len(g.Nodes)}
}

// tableFor returns the class table for the spec's generate predicate. In a
// shared context the table is memoized by the predicate's decision vector
// over the graph's references, so specs with the same signature (e.g.
// must-reaching defs and δ-busy stores, both G = defs) share one table.
func (ctx *solveCtx) tableFor(spec *Spec, sc *Scratch) *classTable {
	if !ctx.shared {
		return buildClassTable(ctx.g, spec.Gen)
	}
	mask := grow(&sc.mask, len(ctx.g.Refs))
	for i, r := range ctx.g.Refs {
		if spec.Gen(r) {
			mask[i] = '1'
		} else {
			mask[i] = '0'
		}
	}
	key := string(mask)
	ct, ok := ctx.tables[key]
	if !ok {
		ct = buildClassTable(ctx.g, spec.Gen)
		if ctx.tables == nil {
			ctx.tables = map[string]*classTable{}
		}
		ctx.tables[key] = ct
	}
	return ct
}

// prZeroFor returns the table's pr bitsets for the direction, memoized in a
// shared context.
func (ctx *solveCtx) prZeroFor(ct *classTable, backward bool) [][]uint64 {
	k := prKey{ct, backward}
	if pz, ok := ctx.prZero[k]; ok {
		return pz
	}
	pz := prZeroRows(ctx.g, ct, backward)
	if ctx.shared {
		if ctx.prZero == nil {
			ctx.prZero = map[prKey][][]uint64{}
		}
		ctx.prZero[k] = pz
	}
	return pz
}

// prZeroRows returns, per class, the bitset of node IDs with pr = 0: nodes
// that some member precedes (forward) or that precede some member
// (backward). A class whose members all sit in one node has exactly that
// node's packed precedes row as its bitset, so it aliases the graph's row;
// on wide loops (one member per class) no bitset is built at all. The
// other classes get their own row in one backing array, built in one
// linear pass over the graph's references: each generating reference ORs
// its node's row into its class's bitset, straight-line word ORs with no
// per-node Precedes calls, skipping a member whose node the class's
// previous member already OR-ed.
func prZeroRows(g *ir.Graph, ct *classTable, backward bool) [][]uint64 {
	row := g.PrecedesRow
	if backward {
		row = g.PrecededByRow
	}
	words := g.BitWords()
	pz := make([][]uint64, len(ct.classes))
	own := 0
	for i, c := range ct.classes {
		if oneNode(c) {
			pz[i] = row(c.Members[0].Node.ID)
		} else {
			own++
		}
	}
	if own == 0 {
		return pz
	}
	backing := make([]uint64, own*words)
	for i, c := range ct.classes {
		if pz[i] == nil {
			pz[i], backing = backing[:words:words], backing[words:]
			last := -1
			for _, r := range c.Members {
				if id := r.Node.ID; id != last {
					last = id
					src := row(id)
					for w := range pz[i] {
						pz[i][w] |= src[w]
					}
				}
			}
		}
	}
	return pz
}

// oneNode reports whether every member of c sits in one node. Members are
// in reference-ID order, which groups them by node.
func oneNode(c *Class) bool {
	return c.Members[0].Node == c.Members[len(c.Members)-1].Node
}

func bitGet(row []uint64, i int) bool {
	return row[i>>6]&(1<<(uint(i)&63)) != 0
}

func bitSet(row []uint64, i int) {
	row[i>>6] |= 1 << (uint(i) & 63)
}

// dir is the walk order of one direction. Position k is node ID k+1
// forward and n−k backward, and a node's inputs are its predecessors
// forward and its successors backward. Position 0 reads the back edge;
// every other input lies at a lower position.
type dir struct {
	g    *ir.Graph
	n    int
	back bool
}

// at returns the position of node ID id.
func (d dir) at(id int) int {
	if d.back {
		return d.n - id
	}
	return id - 1
}

// inputs returns the inputs of the node at position k.
func (d dir) inputs(k int) []*ir.Node {
	if d.back {
		return d.g.Nodes[d.n-1-k].Succs
	}
	return d.g.Nodes[k].Preds
}

// nextFor returns the direction's join table, built once per context.
// next[q] is the first position after q with an input before q — a branch
// arm or join whose inputs can carry different values of a class whose
// last point is at q — or n when there is none. Such a class keeps
// next[q] as a point and skips every position before it: their inputs all
// lie at or after q, where the class's value holds.
//
// The table is filled from the last position down. The positions after q
// with an input before q form a stack whose top is the first, and each
// element's next entry is the element below it, so a position whose
// inputs no longer reach back is popped by following its entry.
func (ctx *solveCtx) nextFor(backward bool) []int32 {
	b := 0
	if backward {
		b = 1
	}
	if ctx.next[b] == nil {
		d := dir{ctx.g, ctx.n, backward}
		next := make([]int32, ctx.n)
		for q := ctx.n - 1; q >= 0; q-- {
			k := q + 1
			for k < ctx.n && !d.reachesBefore(k, q) {
				k = int(next[k])
			}
			next[q] = int32(k)
		}
		ctx.next[b] = next
	}
	return ctx.next[b]
}

// reachesBefore reports whether position k has an input before position q.
func (d dir) reachesBefore(k, q int) bool {
	for _, nd := range d.inputs(k) {
		if d.at(nd.ID) < q {
			return true
		}
	}
	return false
}

// clamp is one compiled (node, class) flow function in its collapsed form
// f(x) = min(max(x, lo), hi) over codes, with lo ≤ hi; gen marks a function
// that generates (it feeds the initialization pass's overestimate). Slots
// absent from the compiled list are the identity clamp lo = 0, hi = CodeAll.
type clamp struct {
	node, class int32
	gen         bool
	lo, hi      uint64
}

// resolveFuel returns the solve's fuel budget: the explicit option when set,
// otherwise a derived default of MaxPasses·nodes·classes plus slack — an
// upper bound on the iteration's total flow applications, so the default
// can never bind and fuel changes nothing unless a caller asks for it.
func resolveFuel(opts *Options, n, m int) int64 {
	if opts.Fuel > 0 {
		return opts.Fuel
	}
	if m < 1 {
		m = 1
	}
	return int64(opts.passLimit())*int64(n)*int64(m) + 64
}

// prepare builds the solve's result shell and its walker: the class table,
// the pr bitsets, the compiled clamps grouped by class, the join table and
// the fuel budget. Everything the walker holds lives in the scratch or the
// context.
func (ctx *solveCtx) prepare(spec *Spec, opts *Options, sc *Scratch) (*Result, *walker) {
	res := &Result{Graph: ctx.g, Spec: spec}
	ct := ctx.tableFor(spec, sc)
	res.adoptClasses(ct)
	m := len(ct.classes)
	res.prZero = ctx.prZeroFor(ct, spec.Backward)
	clamps := ctx.compile(spec, ct, res.prZero, opts.Facts, sc)
	res.FuelBudget = resolveFuel(opts, ctx.n, m)

	w := &sc.w
	w.dir = dir{ctx.g, ctx.n, spec.Backward}
	w.next, w.may, w.ub = ctx.nextFor(spec.Backward), spec.May, 0
	if g := ctx.g; g.HasUB && g.UBConst > 0 {
		w.ub = uint64(g.UBConst)
	}
	// A counting sort groups the clamps by class; compile emits them in
	// node-ID order, which each class's group keeps.
	first := grow(&sc.first, m+2)
	clear(first)
	for i := range clamps {
		first[clamps[i].class+2]++
	}
	for c := 2; c < len(first); c++ {
		first[c] += first[c-1]
	}
	w.clamps = grow(&sc.byClass, len(clamps))
	for _, c := range clamps {
		w.clamps[first[c.class+1]] = c
		first[c.class+1]++
	}
	w.first = first
	return res, w
}

// solve runs one problem instance and stores its fixed point as change
// points.
func (ctx *solveCtx) solve(spec *Spec, opts *Options, sc *Scratch) *Result {
	start := time.Now()
	res, w := ctx.prepare(spec, opts, sc)
	n, m := ctx.n, len(res.Classes)
	// A budget of V node visits completes ⌊V/n⌋ passes, so no class needs
	// walking beyond one pass more: a solve that needs it is exhausted.
	limit := opts.passLimit()
	if m > 0 {
		limit = int(min(int64(limit), res.FuelBudget/int64(m)/int64(n)+1))
	}
	b := &sc.rows
	b.reset()
	changed := 0
	for ci := 0; ci < m; ci++ {
		changed = max(changed, w.walk(ci, opts, limit))
		w.emit(b)
	}
	res.ChangedPasses = changed
	res.Passes = min(changed+1, limit)
	visits := res.Passes * n
	if m > 0 && res.FuelBudget/int64(m) < int64(visits) {
		visits = int(res.FuelBudget / int64(m))
		res.Passes, res.ChangedPasses = visits/n, visits/n
		res.FuelExhausted = true
		fuelExhaustedTotal.Add(1)
		b.degrade(m, spec.May)
	}
	res.NodeVisits = visits
	if !spec.May && !opts.SkipInitPass {
		res.NodeVisits += n
	}
	res.FlowApps = visits * m
	res.rows = b.rows()
	if opts.CollectTrace {
		w.trace(res, opts)
	}
	res.Elapsed = time.Since(start)
	return res
}

// point is one position a class is walked over, with its compiled clamp
// (the identity lo = 0, hi = CodeAll where it has none) and its IN and OUT
// codes.
type point struct {
	pos int32
	// from < 0: the input is the OUT of the point before (for position 0,
	// of the last point: the back edge). Otherwise it is the meet of the
	// OUTs of the points ins[from:to].
	from, to int32
	gen      bool
	lo, hi   uint64
	in, out  uint64
}

// walker walks one solve's classes one at a time. It lives in the scratch,
// so its point lists are reused from solve to solve and a walk allocates
// nothing once they have grown.
type walker struct {
	dir
	next []int32 // the direction's join table (nextFor)
	may  bool
	// ub is the exit clamp's threshold code: a finite code that reaches it
	// (a distance of at least the constant bound minus one) saturates to
	// All (lattice.IncCode); 0 when the bound is unknown.
	ub uint64
	// clamps are the compiled clamps grouped by class; class ci's are
	// clamps[first[ci]:first[ci+1]], in node-ID order.
	clamps []clamp
	first  []int32
	// pts are the current class's points in walk order, ins the kept
	// joins' inputs as point indices, and xi the exit node's point.
	pts []point
	ins []int32
	xi  int
}

// walk gives class ci its initial values and runs up to limit passes over
// its points, returning how many of them changed an OUT.
func (w *walker) walk(ci int, opts *Options, limit int) int {
	w.start(ci, opts)
	for pass := 0; pass < limit; pass++ {
		if !w.pass() {
			return pass
		}
	}
	return limit
}

// start lays out class ci's points and gives them their initial values:
// the paper's initialization pass for must-problems (§3.2), All — or None
// under MayTopStart — for may-problems (§3.3), and All under SkipInitPass.
func (w *walker) start(ci int, opts *Options) {
	w.points(ci)
	var e uint64
	switch {
	case w.may && opts.MayTopStart:
	case w.may || opts.SkipInitPass:
		e = lattice.CodeAll
	default:
		w.initPass()
		return
	}
	for j := range w.pts {
		w.pts[j].in, w.pts[j].out = e, e
	}
}

// points lays out class ci's walk: position 0, the positions of the
// class's clamps and of the exit node, and the branch arms and joins whose
// inputs can carry different values.
func (w *walker) points(ci int) {
	w.pts, w.ins = append(w.pts[:0], point{from: -1, hi: lattice.CodeAll}), w.ins[:0]
	cl := w.clamps[w.first[ci]:w.first[ci+1]]
	for i := range cl {
		c := &cl[i]
		if w.back {
			c = &cl[len(cl)-1-i]
		}
		if k := w.at(int(c.node)); k > 0 {
			w.upTo(k)
		}
		p := &w.pts[len(w.pts)-1]
		p.gen, p.lo, p.hi = c.gen, c.lo, c.hi
	}
	w.xi = 0
	if !w.back && w.n > 1 {
		w.upTo(w.n - 1)
		w.xi = len(w.pts) - 1
	}
	w.upTo(w.n)
}

// upTo adds the points of the joins before position k that the class
// keeps and then, unless k is n, the point at k. A kept join's inputs
// resolve to the points that hold their OUTs; any other point's input is
// the point before it.
func (w *walker) upTo(k int) {
	for {
		j := int(w.next[w.pts[len(w.pts)-1].pos])
		if j > k || j == w.n {
			break
		}
		p := point{pos: int32(j), from: int32(len(w.ins)), hi: lattice.CodeAll}
		for _, nd := range w.inputs(j) {
			w.ins = append(w.ins, w.find(w.at(nd.ID)))
		}
		p.to = int32(len(w.ins))
		if w.pts = append(w.pts, p); j == k {
			return
		}
	}
	if k < w.n {
		w.pts = append(w.pts, point{pos: int32(k), from: -1, hi: lattice.CodeAll})
	}
}

// find returns the last point at or before position q, whose OUT is q's.
func (w *walker) find(q int) int32 {
	lo, hi := 0, len(w.pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(w.pts[mid].pos) <= q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo - 1)
}

// meet returns the meet of p's inputs' OUTs.
func (w *walker) meet(p *point) uint64 {
	ins := w.ins[p.from:p.to]
	x := w.pts[ins[0]].out
	for _, i := range ins[1:] {
		if w.may {
			x = max(x, w.pts[i].out)
		} else {
			x = min(x, w.pts[i].out)
		}
	}
	return x
}

// initPass runs the initialization pass of must-problems: position 0
// starts at None, every other point meets its inputs (in ID order all of
// them precede it; the back edge is position 0's alone), and a generating
// point overestimates to All.
func (w *walker) initPass() {
	var x uint64
	for j := range w.pts {
		p := &w.pts[j]
		if p.from >= 0 {
			x = w.meet(p)
		}
		p.in = x
		if p.gen {
			x = lattice.CodeAll
		}
		p.out = x
	}
}

// pass runs one iteration pass over the class's points and reports whether
// any OUT changed. Position 0 reads the back edge: the last point's OUT
// from the pass before. The exit node applies the loop increment, every
// other point its clamp.
func (w *walker) pass() bool {
	pts := w.pts
	x := pts[len(pts)-1].out
	changed := false
	for j := range pts {
		p := &pts[j]
		if p.from >= 0 {
			x = w.meet(p)
		}
		p.in = x
		if j == w.xi {
			x = lattice.IncCode(x, w.ub)
		} else {
			x = min(max(x, p.lo), p.hi)
		}
		if x != p.out {
			p.out, changed = x, true
		}
	}
	return changed
}

// emit appends the class's change points to b in node-ID order. A point
// holds its IN and OUT at its own node, and the positions after it up to
// the next point hold its OUT in both sets: the IDs after the point
// forward, the IDs before it backward.
func (w *walker) emit(b *rowBuilder) {
	for i := range w.pts {
		j := i
		if w.back {
			j = len(w.pts) - 1 - i
		}
		p, span := &w.pts[j], w.n-int(w.pts[j].pos)
		if j+1 < len(w.pts) {
			span = int(w.pts[j+1].pos - p.pos)
		}
		id := int(p.pos) + 1
		if w.back {
			id = w.n - int(p.pos)
			if span > 1 {
				b.put(id-span+1, p.out, p.out)
			}
		}
		b.put(id, p.in, p.out)
		if !w.back && span > 1 {
			b.put(id+1, p.out, p.out)
		}
	}
	b.end()
}

// trace records the initialization pass (when one ran) and each of the
// solve's passes as snapshots, walking every class again over them.
func (w *walker) trace(res *Result, opts *Options) {
	ranInit := !w.may && !opts.SkipInitPass
	var init rowBuilder
	passes := make([]rowBuilder, res.Passes)
	for ci := range res.Classes {
		w.start(ci, opts)
		if ranInit {
			w.emit(&init)
		}
		for p := range passes {
			w.pass()
			w.emit(&passes[p])
		}
	}
	if ranInit {
		res.init = init.entry(w.n)
	}
	for p := range passes {
		res.Trace = append(res.Trace, passes[p].entry(w.n))
	}
}

// compile folds every (node, class) flow function to its clamp and returns
// the non-identity ones as a sparse list (in the scratch's storage, valid
// until the next compile on it). Class membership is decided by the
// table's dense refClass array, a killer's candidate classes by its
// per-array index.
func (ctx *solveCtx) compile(spec *Spec, ct *classTable, prZero [][]uint64, facts RangeOracle, sc *Scratch) []clamp {
	g := ctx.g
	m := len(ct.classes)
	// A node's flow can only differ from the identity for classes one of
	// its references touches: the reference's own class (generate) or any
	// class over the same array (kill). Walking just those candidates keeps
	// compilation O(refs·classes-per-array) instead of O(nodes·classes).
	// Candidates are deduped with a node-ID stamp (node 0 is unused, so a
	// zeroed stamp row is "unseen").
	stamp := grow(&sc.ints[0], m)
	clear(stamp)
	cmp := compiler{
		out:  sc.clamps[:0],
		g:    g,
		spec: spec,
		ct:   ct,
		kctxBase: KillContext{
			May:      spec.May,
			Backward: spec.Backward,
			UB:       g.UBConst,
			HasUB:    g.HasUB,
			Facts:    facts,
		},
	}
	// The preserve memo keys on (class, form, pr) only; that stays valid
	// with an oracle because the oracle is constant for the whole solve.
	cmp.kctxBase.SymUB, cmp.kctxBase.HasSymUB = symUBOf(g)
	cmp.buildForms(sc)
	for _, nd := range g.Nodes {
		id := int32(nd.ID)
		for _, r := range nd.Refs {
			if ci := ct.refClass[r.ID]; ci >= 0 && stamp[ci] != id {
				stamp[ci] = id
				cmp.compileSlot(nd, ct.classes[ci], prZero[ci])
			}
			if !spec.Kill(r) {
				continue
			}
			if a, ok := ct.arrayOf[r.Array]; ok {
				for _, c := range ct.arrays[a] {
					if stamp[c.Index] != id {
						stamp[c.Index] = id
						cmp.compileSlot(nd, c, prZero[c.Index])
					}
				}
			}
		}
	}
	sc.clamps = cmp.out
	return cmp.out
}

// compiler carries the fold state of one compile: the output list, the
// per-slot walk state, and the preserve memo. One compiler serves the whole
// compile (no closures, no per-slot construction), so compiling a slot
// allocates nothing beyond list growth.
type compiler struct {
	out      []clamp
	nodePr   int64
	want     int32
	genSeen  bool
	lo, hi   uint64
	g        *ir.Graph
	spec     *Spec
	ct       *classTable
	c        *Class
	kctxBase KillContext // May/Backward/UB fixed per solve; Pr set per emit

	// Preserve memoization: a killing reference's preserve distance against
	// a class depends only on the two affine forms and the pr bit, and it
	// exists only when both are over the same array. So every affine killer
	// over an array with classes gets a form ID within its array (its
	// class's position when classified, kₐ plus a per-array slot otherwise),
	// and PreserveConst runs once per (class, form, pr) triple instead of
	// once per folded cap. Each array owns a memo block of (kₐ + extraₐ)·2·kₐ
	// cells at base[a], addressed (form·2 + pr)·kₐ + the class's position;
	// slot caches base[a] plus the current class's position, stride its kₐ.
	// The memo totals Σₐ (kₐ + extraₐ)·2·kₐ cells, linear in the references
	// when each array has few classes.
	fid          []int32 // ref ID → form ID within its array, -1 when unused
	base         []int
	slot, stride int
	memo         []uint64 // preserve distances as codes
	memoDone     []uint64
}

// extraForm is the affine form of killers outside every class, chained per
// array: id is the form ID within the array, next the array's previous
// extra form (-1 ends the chain).
type extraForm struct {
	form     sema.AffineForm
	id, next int32
}

// buildForms assigns form IDs to every reference that can kill with an
// affine subscript and lays out the per-array preserve memo in the
// scratch's storage. Killers over arrays without classes cap nothing and
// get no form ID; extra forms are deduplicated within their array's chain
// only.
func (e *compiler) buildForms(sc *Scratch) {
	g, ct := e.g, e.ct
	na := len(ct.arrays)
	nExtra := grow(&sc.ints[2], na)
	clear(nExtra)
	head := grow(&sc.ints[3], na)
	for a := range head {
		head[a] = -1
	}
	extra := sc.extra[:0]
	e.fid = grow(&sc.ints[1], len(g.Refs)+1)
	for _, r := range g.Refs {
		e.fid[r.ID] = -1
		if !r.Affine || r.FromInner || !e.spec.Kill(r) {
			continue
		}
		if ci := ct.refClass[r.ID]; ci >= 0 {
			e.fid[r.ID] = ct.classPos[ci]
			continue
		}
		a, ok := ct.arrayOf[r.Array]
		if !ok {
			continue
		}
		id := int32(-1)
		for x := head[a]; x >= 0; x = extra[x].next {
			if extra[x].form.A.Equal(r.Form.A) && extra[x].form.B.Equal(r.Form.B) {
				id = extra[x].id
				break
			}
		}
		if id < 0 {
			id = int32(len(ct.arrays[a])) + nExtra[a]
			nExtra[a]++
			extra = append(extra, extraForm{form: r.Form, id: id, next: head[a]})
			head[a] = int32(len(extra) - 1)
		}
		e.fid[r.ID] = id
	}
	sc.extra = extra
	e.base = grow(&sc.base, na)
	cells := 0
	for a, cs := range ct.arrays {
		e.base[a] = cells
		k := len(cs)
		cells += (k + int(nExtra[a])) * 2 * k
	}
	e.memo = grow(&sc.memo, cells)
	e.memoDone = grow(&sc.memoDone, (cells+63)/64)
	clear(e.memoDone)
}

// preserve returns the memoized PreserveConst result for the current class
// against the affine killer r, whose form ID within the class's array is
// f, at the given pr. Killers sharing a form ID have Equal forms, so
// whichever reaches a cell first computes it for all.
func (e *compiler) preserve(r *ir.Ref, f int, pr int64) uint64 {
	idx := e.slot + (f*2+int(pr))*e.stride
	if !bitGet(e.memoDone, idx) {
		kctx := e.kctxBase
		kctx.Pr = pr
		e.memo[idx] = lattice.Code(PreserveConst(e.c.Form, r.Form, true, kctx))
		bitSet(e.memoDone, idx)
	}
	return e.memo[idx]
}

// compileSlot folds node nd's flow function for class c and appends it
// unless it is the identity. The fold walks the reference effects in
// execution order, reversed for backward problems, with summary nodes
// reordered by polarity (must: generates before kills; may: kills before
// generates). Sequencing matters within a node: in "A[i] := … A[i-1] …"
// the use observes memory before the definition overwrites it.
func (e *compiler) compileSlot(nd *ir.Node, c *Class, prZeroC []uint64) {
	e.want = int32(c.Index)
	e.c = c
	a := e.ct.classArr[c.Index]
	e.stride = len(e.ct.arrays[a])
	e.slot = e.base[a] + int(e.ct.classPos[c.Index])
	e.genSeen = false
	e.lo, e.hi = 0, lattice.CodeAll
	e.nodePr = 1
	if bitGet(prZeroC, nd.ID) {
		e.nodePr = 0
	}
	if nd.Kind != ir.KindSummary {
		e.walk(nd, 2, e.spec.Backward)
	} else {
		// Summary nodes collapse an inner loop of unknown internal order: the
		// safe approximation applies generates before kills for must-problems
		// (underestimate) and kills before generates for may-problems
		// (overestimate); backward solves reverse the whole sequence.
		first, second := 0, 1 // must, forward: gens then kills
		if e.spec.May {
			first, second = 1, 0
		}
		if e.spec.Backward {
			first, second = second, first
		}
		e.walk(nd, first, e.spec.Backward)
		e.walk(nd, second, e.spec.Backward)
	}
	// A slot that never generated keeps lo = ⊥, so it is the identity
	// exactly when no cap lowered hi.
	if e.genSeen || e.hi != lattice.CodeAll {
		e.out = append(e.out, clamp{node: int32(nd.ID), class: e.want, gen: e.genSeen, lo: e.lo, hi: e.hi})
	}
}

// walk folds node nd's references in execution order (reversed for
// backward problems). phase: 0 = members of the class only, 1 = non-members
// only, 2 = all.
func (e *compiler) walk(nd *ir.Node, phase int, reverse bool) {
	refs := nd.Refs
	for k := 0; k < len(refs); k++ {
		r := refs[k]
		if reverse {
			r = refs[len(refs)-1-k]
		}
		isMember := e.ct.refClass[r.ID] == e.want
		if phase == 0 && !isMember || phase == 1 && isMember {
			continue
		}
		e.fold(r, isMember)
	}
}

// fold composes one reference's effect onto the slot's clamp. Over the
// chain lattice a generate (max with 0, code 1) raises both bounds to at
// least 0 (max distributes over min on a chain), and a preserve cap (min
// with p) lowers hi and renormalizes lo ≤ hi; an identity cap (p = ⊤)
// changes neither.
func (e *compiler) fold(r *ir.Ref, isMember bool) {
	if isMember {
		e.lo = max(e.lo, 1)
		e.hi = max(e.hi, 1)
		e.genSeen = true
		return
	}
	if !e.spec.Kill(r) || r.Array != e.c.Array {
		return
	}
	pr := e.nodePr
	if e.genSeen {
		// A member of the class already executed within this node before
		// the kill: the distance-0 instance is in range.
		pr = 0
	}
	var p uint64
	if f := e.fid[r.ID]; f >= 0 {
		p = e.preserve(r, int(f), pr)
	} else {
		kctx := e.kctxBase
		kctx.Pr = pr
		var d lattice.Dist
		if r.FromInner && r.HasRegion {
			d = PreserveAgainstRegion(e.c.Form, r.RegionLo, r.RegionHi, kctx)
		} else {
			d = PreserveConst(e.c.Form, r.Form, r.Affine && !r.FromInner, kctx)
		}
		p = lattice.Code(d)
	}
	e.hi = min(e.hi, p)
	e.lo = min(e.lo, e.hi)
}
