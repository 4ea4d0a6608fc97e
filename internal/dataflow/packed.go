// The solver: the paper's three-pass framework over word-packed lattice
// rows, so the constant factor is bounded by lattice arithmetic rather than
// allocator traffic.
//
//   - IN/OUT state lives in word-packed rows (lattice.Packing): one uint64
//     holds 8, 4 or 1 class cells (8-, 16- or 64-bit lanes), so meets, flow
//     applications, and the changed-check run whole words at a time with
//     SWAR min/max kernels. The rows are solve-time scratch: a finished
//     solve keeps its fixed point as per-class change points (rows.go).
//   - The paper has two flow functions, generate max(x, 0) and preserve
//     min(x, p), and classes never interact, so every (node, class) flow
//     function collapses to one clamp x ↦ min(max(x, lo), hi). The compiler
//     folds each (node, class) straight to its (lo, hi, gen) triple in a
//     sparse per-solve list, which then fills two packed bound rows (LO/HI)
//     per node — one ApplyBounds sweep per word applies a node's whole flow
//     across all classes. Membership tests go through a dense ref-ID →
//     class-index array, never a map[*ir.Ref].
//   - pr(class, node) is a per-class bitset built by straight-line word ORs
//     over the graph's packed precedes rows, one pass over the references.
//
// Every solve carries a fuel budget (Options.Fuel): iteration passes debit
// one unit per flow application, and exhaustion terminates the solve by
// degrading every tuple to the claim-nothing value for the problem's
// polarity (must → ⊥ "no instance", may → ⊤ "all instances"), so downstream
// consumers can only lose precision, never soundness. The default budget is
// derived from MaxPasses·nodes·classes and can never bind; an explicit
// budget bounds worst-case solve latency.
//
// A solveCtx is shareable across problem instances on the same graph:
// SolveAll reuses class discovery (per generate-predicate signature), node
// orderings, and the pr bitsets across the four standard problems.
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
	g   *ir.Graph
	n   int
	fwd []*ir.Node // reverse postorder of the body DAG
	bwd []*ir.Node // reverse of fwd, built on first backward spec

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
	return &solveCtx{g: g, n: len(g.Nodes), fwd: g.RPO()}
}

// order returns the iteration order for the direction, building the
// backward order on first use.
func (ctx *solveCtx) order(backward bool) []*ir.Node {
	if !backward {
		return ctx.fwd
	}
	if ctx.bwd == nil {
		ctx.bwd = make([]*ir.Node, len(ctx.fwd))
		for i, nd := range ctx.fwd {
			ctx.bwd[len(ctx.fwd)-1-i] = nd
		}
	}
	return ctx.bwd
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

// clamp is one compiled (node, class) flow function in its collapsed form
// f(x) = min(max(x, lo), hi), with lo ≤ hi; gen marks a function that
// generates (it feeds the initialization pass's overestimate). Slots
// absent from the compiled list are the identity clamp lo = ⊥, hi = ⊤.
type clamp struct {
	node, class int32
	gen         bool
	lo, hi      lattice.Dist
}

// solver is the per-spec iteration state; its pass methods are allocation-
// free once prepared.
type solver struct {
	res   *Result
	g     *ir.Graph
	order []*ir.Node
	entry *ir.Node
	sc    *Scratch
	m     int
	may   bool
	back  bool

	fuel      int64
	exhausted bool

	pk        lattice.Packing
	words     int
	inW       []uint64 // packed IN rows
	outW      []uint64 // packed OUT rows
	loW       []uint64 // per-node batch lower bounds
	hiW       []uint64 // per-node batch upper bounds
	genW      []uint64 // per-node generate lanes (All in generating cells)
	scrW      []uint64 // one-row scratch
	ubE       uint64   // encoded exit clamp threshold
	exitClamp bool
}

// preds returns the meet inputs of nd for the solve direction.
func (st *solver) preds(nd *ir.Node) []*ir.Node {
	if st.back {
		return nd.Succs
	}
	return nd.Preds
}

// rowW returns node id's packed row of a flat row set.
func (st *solver) rowW(flat []uint64, id int) []uint64 {
	return flat[(id-1)*st.words : id*st.words]
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

// laneFor picks the narrowest lane width that holds every finite distance
// the solve can produce: meets and clamps mint no new finite values, so
// they are bounded by the largest finite clamp bound plus one exit
// increment per pass (with slack). The comparison subtracts from the lane
// capacity instead of adding to the bound, so it cannot overflow; a 64-bit
// lane holds every int64 distance.
func laneFor(clamps []clamp, maxPasses int) uint {
	var maxFin int64
	for i := range clamps {
		for _, d := range [2]lattice.Dist{clamps[i].lo, clamps[i].hi} {
			if v, ok := d.Finite(); ok && v > maxFin {
				maxFin = v
			}
		}
	}
	for _, lane := range [...]uint{lattice.Lane8, lattice.Lane16} {
		if maxFin <= lattice.MaxFiniteForLane(lane)-int64(maxPasses)-2 {
			return lane
		}
	}
	return lattice.Lane64
}

// prepare builds the per-spec iteration state: class table, compiled
// clamps, the IN/OUT rows at the chosen lane width, the LO/HI/GEN bound
// rows, and the fuel budget. Every row lives in the scratch. After prepare,
// initStage and iteratePass allocate nothing.
func (ctx *solveCtx) prepare(spec *Spec, opts *Options, sc *Scratch) *solver {
	res := &Result{Graph: ctx.g, Spec: spec}
	ct := ctx.tableFor(spec, sc)
	res.adoptClasses(ct)
	m := len(ct.classes)
	n := ctx.n
	res.prZero = ctx.prZeroFor(ct, spec.Backward)
	clamps := ctx.compile(spec, ct, res.prZero, opts.Facts, sc)

	st := &solver{
		res:   res,
		g:     ctx.g,
		order: ctx.order(spec.Backward),
		entry: ctx.g.Entry,
		sc:    sc,
		m:     m,
		may:   spec.May,
		back:  spec.Backward,
		fuel:  resolveFuel(opts, n, m),
	}
	res.FuelBudget = st.fuel
	if spec.Backward {
		st.entry = ctx.g.Exit
	}

	st.pk = lattice.NewPacking(m, laneFor(clamps, opts.passLimit()))
	st.words = st.pk.Words
	size := n * st.words
	st.inW = grow(&sc.words[0], size)
	st.outW = grow(&sc.words[1], size)
	st.loW = grow(&sc.words[2], size)
	st.hiW = grow(&sc.words[3], size)
	st.genW = grow(&sc.words[4], size)
	st.scrW = grow(&sc.words[5], st.words)
	// Default bounds are the identity clamp lo = ⊥, hi = ⊤; only compiled
	// slots deviate, so the sparse pass below touches O(refs) cells, not
	// O(n·m). hi's tail lanes may hold ⊤ safely: ApplyBounds computes
	// min(max(0, 0), hi) = 0 on tails regardless.
	clear(st.loW)
	for i := range st.hiW {
		st.hiW[i] = ^uint64(0)
	}
	clear(st.genW)
	pk := &st.pk
	for i := range clamps {
		c := &clamps[i]
		id, ci := int(c.node), int(c.class)
		pk.SetCell(st.rowW(st.loW, id), ci, pk.Encode(c.lo))
		pk.SetCell(st.rowW(st.hiW, id), ci, pk.Encode(c.hi))
		if c.gen {
			pk.SetCell(st.rowW(st.genW, id), ci, pk.All)
		}
	}
	if st.g.HasUB && st.g.UBConst > 0 && uint64(st.g.UBConst) < pk.All {
		// Encoded e = d+1, so the clamp condition d ≥ ub−1 becomes e ≥ ub.
		// Thresholds at or beyond the lane's All can never fire (finite
		// lanes stay below them).
		st.exitClamp = true
		st.ubE = uint64(st.g.UBConst)
	}
	return st
}

// solve runs one problem instance and stores its fixed point as change
// points.
func (ctx *solveCtx) solve(spec *Spec, opts *Options, sc *Scratch) *Result {
	start := time.Now()
	st := ctx.prepare(spec, opts, sc)
	res := st.res

	st.initStage(opts)
	for pass := 1; pass <= opts.passLimit(); pass++ {
		changed := st.iteratePass()
		if st.exhausted {
			break
		}
		res.Passes = pass
		if changed {
			res.ChangedPasses++
		}
		if opts.CollectTrace {
			res.Trace = append(res.Trace, st.snapshot())
		}
		if !changed {
			break
		}
	}
	if st.exhausted {
		st.degrade()
	}
	res.rows = encodeRows(&st.pk, ctx.n, st.inW, st.outW, sc)
	res.Elapsed = time.Since(start)
	return res
}

// snapshot decodes the current IN and OUT rows into fresh 1-based slabs.
func (st *solver) snapshot() TraceEntry {
	n, w := len(st.g.Nodes), st.words
	e := TraceEntry{In: lattice.Slab(n, st.m), Out: lattice.Slab(n, st.m)}
	for id := 1; id <= n; id++ {
		st.pk.DecodeRow(e.In[id], st.inW[(id-1)*w:id*w])
		st.pk.DecodeRow(e.Out[id], st.outW[(id-1)*w:id*w])
	}
	return e
}

// initStage runs the paper's initialization (§3.2 for must, §3.3 for may).
func (st *solver) initStage(opts *Options) {
	pk := &st.pk
	n := len(st.g.Nodes)
	switch {
	case st.may:
		e := pk.Encode(lattice.All())
		if opts.MayTopStart {
			e = pk.Encode(lattice.None())
		}
		for id := 1; id <= n; id++ {
			pk.Fill(st.rowW(st.inW, id), e)
			pk.Fill(st.rowW(st.outW, id), e)
		}
	case opts.SkipInitPass:
		for id := 1; id <= n; id++ {
			pk.Fill(st.rowW(st.inW, id), pk.All)
			pk.Fill(st.rowW(st.outW, id), pk.All)
		}
	default:
		st.initPass()
		if opts.CollectTrace {
			st.res.init = st.snapshot()
		}
	}
}

// initPass runs the initialization pass for must-problems: meet over
// already-visited predecessors (back-edge inputs excluded), then the
// generate overestimate — one OR with the node's gen row (All is the
// all-ones lane).
func (st *solver) initPass() {
	res := st.res
	pk := &st.pk
	visited := grow(&st.sc.visited, len(st.g.Nodes)+1)
	clear(visited)
	for _, nd := range st.order {
		res.NodeVisits++
		in := st.rowW(st.inW, nd.ID)
		if nd == st.entry {
			clear(in)
		} else {
			pk.Fill(in, pk.All)
			any := false
			for _, p := range st.preds(nd) {
				if !visited[p.ID] {
					continue // back-edge predecessor: excluded from init
				}
				pk.MinInto(in, st.rowW(st.outW, p.ID))
				any = true
			}
			if !any {
				clear(in)
			}
		}
		out := st.rowW(st.outW, nd.ID)
		gen := st.rowW(st.genW, nd.ID)
		for w := range out {
			out[w] = in[w] | gen[w]
		}
		visited[nd.ID] = true
	}
}

// iteratePass runs one fixed-point pass over every node, reporting whether
// any OUT row changed. It allocates nothing. Meets are SWAR min/max sweeps
// over predecessor OUT rows, and a node's whole flow function across all
// classes is two packed rows applied per word (min(max(in, lo), hi)); the
// exit node applies the increment-and-clamp kernel instead. Every node
// visit debits m units of fuel first; when the budget cannot cover the
// visit the pass stops and marks the solve exhausted.
func (st *solver) iteratePass() bool {
	res := st.res
	pk := &st.pk
	mFuel := int64(st.m)
	changed := false
	for _, nd := range st.order {
		if st.fuel < mFuel {
			st.exhausted = true
			break
		}
		res.NodeVisits++
		in := st.rowW(st.inW, nd.ID)
		ps := st.preds(nd)
		switch {
		case len(ps) == 1:
			// Meet over one input is that input, whichever the polarity.
			copy(in, st.rowW(st.outW, ps[0].ID))
		case len(ps) > 1:
			if st.may {
				clear(in)
				for _, p := range ps {
					pk.MaxInto(in, st.rowW(st.outW, p.ID))
				}
			} else {
				pk.Fill(in, pk.All)
				for _, p := range ps {
					pk.MinInto(in, st.rowW(st.outW, p.ID))
				}
			}
		}
		res.FlowApps += st.m
		st.fuel -= mFuel
		scr := st.scrW
		if nd.Kind == ir.KindExit {
			copy(scr, in)
			pk.IncClamp(scr, st.ubE, st.exitClamp)
		} else {
			pk.ApplyBounds(scr, in, st.rowW(st.loW, nd.ID), st.rowW(st.hiW, nd.ID))
		}
		out := st.rowW(st.outW, nd.ID)
		eq := true
		for w := range scr {
			if scr[w] != out[w] {
				eq = false
				break
			}
		}
		if !eq {
			changed = true
			copy(out, scr)
		}
	}
	return changed
}

// degrade overwrites a fuel-exhausted solve's fixed point with the
// claim-nothing value of the problem's polarity: ⊥ for must-problems (no
// instance is asserted in range, so Covers is false everywhere) and ⊤ for
// may-problems (every instance may be live) — conservative in both
// directions. It marks the exhaustion on the result and the process
// counter.
func (st *solver) degrade() {
	e := uint64(0)
	if st.may {
		e = st.pk.All
	}
	for id := 1; id <= len(st.g.Nodes); id++ {
		st.pk.Fill(st.rowW(st.inW, id), e)
		st.pk.Fill(st.rowW(st.outW, id), e)
	}
	st.res.FuelExhausted = true
	fuelExhaustedTotal.Add(1)
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
	lo, hi   lattice.Dist
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
	memo         []lattice.Dist
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
	e.memo = grow(&sc.dists, cells)
	e.memoDone = grow(&sc.words[6], (cells+63)/64)
	clear(e.memoDone)
}

// preserve returns the memoized PreserveConst result for the current class
// against the affine killer r, whose form ID within the class's array is
// f, at the given pr. Killers sharing a form ID have Equal forms, so
// whichever reaches a cell first computes it for all.
func (e *compiler) preserve(r *ir.Ref, f int, pr int64) lattice.Dist {
	idx := e.slot + (f*2+int(pr))*e.stride
	if !bitGet(e.memoDone, idx) {
		kctx := e.kctxBase
		kctx.Pr = pr
		e.memo[idx] = PreserveConst(e.c.Form, r.Form, true, kctx)
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
	e.lo, e.hi = lattice.None(), lattice.All()
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
	if e.genSeen || !e.hi.IsAll() {
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
// chain lattice a generate (max with 0) raises both bounds to at least 0
// (max distributes over min on a chain), and a preserve cap (min with p)
// lowers hi and renormalizes lo ≤ hi; an identity cap (p = ⊤) changes
// neither.
func (e *compiler) fold(r *ir.Ref, isMember bool) {
	if isMember {
		e.lo = lattice.Max(e.lo, lattice.D(0))
		e.hi = lattice.Max(e.hi, lattice.D(0))
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
	var p lattice.Dist
	if f := e.fid[r.ID]; f >= 0 {
		p = e.preserve(r, int(f), pr)
	} else {
		kctx := e.kctxBase
		kctx.Pr = pr
		if r.FromInner && r.HasRegion {
			p = PreserveAgainstRegion(e.c.Form, r.RegionLo, r.RegionHi, kctx)
		} else {
			p = PreserveConst(e.c.Form, r.Form, r.Affine && !r.FromInner, kctx)
		}
	}
	e.hi = lattice.Min(e.hi, p)
	e.lo = lattice.Min(e.lo, e.hi)
}
