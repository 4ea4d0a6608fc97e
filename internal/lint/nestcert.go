// Nest certification: the race analyzer's treatment of loops containing
// summarized inner loops. The flow graph of an outer loop collapses each
// nested loop into a summary node whose references carry linearized affine
// forms a·I + B over the OUTER induction variable, with the inner
// induction variables left as free symbols of B (ir.Ref.InnerAffine). Two
// executions of the loop body at outer iterations i1 and i2 = i1 + δ
// touch a common element of the same array exactly when
//
//	a·δ = B1(v) − B2(v′)
//
// for some feasible inner values v, v′ — the primes mark that the two
// executions choose their inner iterations independently, while
// loop-invariant symbols (enclosing induction variables, scalars, symbolic
// dimensions) are shared and cancel. The certifier bounds the right-hand
// side with the loop's range facts (inner bounds, guards, dims), refutes
// candidate distances with a gcd congruence, and either proves the pair
// collision-free, constructs a concrete replayable witness, or emits a
// why-certificate blocker naming the comparison it could not resolve.
//
// The graph may have been built from another loop of the same content (the
// driver memoizes solves by content), so it supplies forms and texts only:
// the nest's AST context and every reported position come from the
// analyzed loop's own source.
package lint

import (
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/poly"
	"repro/internal/rangefacts"
	"repro/internal/sema"
)

const (
	// nestDistanceScan bounds the candidate-distance enumeration when the
	// outer trip count is symbolic but the footprint distance is bounded.
	nestDistanceScan = 4096
	// nestWitnessAssignments caps the inner-value tuples tried per
	// candidate distance when constructing a witness.
	nestWitnessAssignments = 4096
)

// nestPrime renames an inner induction variable for the second execution
// of the pair comparison. The apostrophe cannot occur in a source
// identifier, so primed names never collide with program symbols.
const nestPrime = "'"

func primedName(v string) string { return v + nestPrime }

// nestBase strips the prime, mapping a renamed symbol back to its source
// symbol (identity for unprimed symbols).
func nestBase(s string) string { return strings.TrimSuffix(s, nestPrime) }

// nestRefCtx is the AST context of one reference inside the analyzed
// loop's body: whether any If guards it, and the chain of inner loops
// enclosing it (outermost first).
type nestRefCtx struct {
	conditional bool
	chain       []string
}

// nestInfo is the AST-side picture of the loop nest, built by walking the
// analyzed loop's own AST: its refs are keyed by the loop's own
// expressions (loopRefs.expr), and the inner-bound-ref blockers name
// array reads that are not graph references at all.
type nestInfo struct {
	refs  map[*ast.ArrayRef]nestRefCtx
	inner map[string]bool
	// constHi maps inner induction variables of constant-bound loops
	// (normalized lo = 1, no step) to their trip counts; witnesses draw
	// concrete inner iterations only from these.
	constHi  map[string]int64
	blockers []Blocker
}

// collectNestInfo walks the loop body mirroring the ir builder's reference
// collection (subscripts of a subscripted reference are not references),
// recording per-reference context and flagging the one reference site the
// summarization skips entirely: array reads inside an inner loop's bound
// expressions.
func collectNestInfo(loop *ast.DoLoop) *nestInfo {
	ni := &nestInfo{
		refs:    map[*ast.ArrayRef]nestRefCtx{},
		inner:   map[string]bool{},
		constHi: map[string]int64{},
	}
	record := func(e ast.Expr, cond bool, chain []string) {
		ast.InspectExpr(e, func(n ast.Node) bool {
			if ar, ok := n.(*ast.ArrayRef); ok {
				ni.refs[ar] = nestRefCtx{conditional: cond, chain: chain}
				return false
			}
			return true
		})
	}
	boundRefs := func(e ast.Expr, iv string) {
		ast.InspectExpr(e, func(n ast.Node) bool {
			if ar, ok := n.(*ast.ArrayRef); ok {
				t := ast.ExprString(ar)
				ni.blockers = append(ni.blockers, Blocker{
					Pos:    ar.Pos(),
					Slug:   "inner-bound-ref",
					reason: fixedText("the bound of the inner loop over " + iv + " reads " + t + ", which the summarized body does not model"),
					cert: func() (string, string) {
						return "footprint of " + t + " across iterations", "an inner loop bound free of array reads"
					},
				})
				return false
			}
			return true
		})
	}
	var walk func(stmts []ast.Stmt, cond bool, chain []string)
	walk = func(stmts []ast.Stmt, cond bool, chain []string) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *ast.Assign:
				record(st.RHS, cond, chain)
				if lhs, ok := st.LHS.(*ast.ArrayRef); ok {
					ni.refs[lhs] = nestRefCtx{conditional: cond, chain: chain}
				}
			case *ast.If:
				record(st.Cond, cond, chain)
				walk(st.Then, true, chain)
				walk(st.Else, true, chain)
			case *ast.DoLoop:
				ni.inner[st.Var] = true
				boundRefs(st.Lo, st.Var)
				boundRefs(st.Hi, st.Var)
				lo, okLo := sema.ConstValue(st.Lo)
				hi, okHi := sema.ConstValue(st.Hi)
				if okLo && okHi && lo == 1 && st.Step == nil {
					ni.constHi[st.Var] = hi
				}
				walk(st.Body, cond, append(append([]string(nil), chain...), st.Var))
			}
		}
	}
	walk(loop.Body, false, nil)
	return ni
}

// certifyNest resolves every conflicting reference pair that involves a
// summarized inner loop, offering each collision to racy. Pairs of plain
// body references are resolvePair's job; this covers (inner, inner) and
// (outer, inner) pairs, which the analyzer previously wrote off with a
// blanket "nested loop is summarized" blocker.
func certifyNest(c *Context, g *ir.Graph, refs *loopRefs, racy *leastCollision) (evs []PairEvidence, blockers []Blocker) {
	ni := collectNestInfo(c.Loop.Loop)
	blockers = append(blockers, ni.blockers...)
	facts := c.Facts()

	var pairable []*ir.Ref
	for _, r := range g.Refs {
		switch {
		case r.FromInner && r.InnerAffine:
			pairable = append(pairable, r)
		case r.FromInner:
			t := refs.text(r)
			blockers = append(blockers, Blocker{
				Pos:    refs.pos(r),
				Slug:   "nonaffine-nest-subscript",
				reason: fixedText("subscript of " + t + " inside a nested loop is not affine in " + g.IV + " and its inner induction variables"),
				cert: func() (string, string) {
					return "footprint of " + t + " across iterations of " + g.IV, "an affine subscript"
				},
			})
		case r.Affine:
			pairable = append(pairable, r)
		}
	}
	for i, r1 := range pairable {
		for _, r2 := range pairable[i:] {
			if r1.Array != r2.Array || (r1.Kind != ir.Def && r2.Kind != ir.Def) {
				continue
			}
			if !r1.FromInner && !r2.FromInner {
				continue // plain pair: the exact pairwise solver owns it
			}
			o := resolveNestPair(r1, r2, g, ni, facts, refs)
			switch o.kind {
			case pairNone, pairIndependent:
				evs = append(evs, PairEvidence{
					FromText: refs.text(r1), ToText: refs.text(r2), reason: o.reason,
				})
			case pairConflict:
				racy.offer(o.conflict)
			case pairUnknown:
				b := o.blocker
				if !b.Pos.IsValid() {
					b.Pos = refs.pos(r1)
				}
				blockers = append(blockers, b)
			}
		}
	}
	return evs, blockers
}

// resolveNestPair decides one pair with at least one summarized-loop
// reference: collision-free, a concrete witness, or a certified unknown.
func resolveNestPair(r1, r2 *ir.Ref, g *ir.Graph, ni *nestInfo, facts *rangefacts.Facts, refs *loopRefs) pairOutcome {
	a1, okA1 := r1.Form.A.IsConst()
	a2, okA2 := r2.Form.A.IsConst()
	if !okA1 || !okA2 {
		sym := r1.Form.A
		if okA1 {
			sym = r2.Form.A
		}
		return unknown(Blocker{
			Slug: "nest-symbolic-stride",
			reason: deferText(func() string {
				return "stride of " + refs.text(r1) + " or " + refs.text(r2) + " over " + g.IV + " is symbolic (" + sym.String() + ")"
			}),
			cert: func() (string, string) {
				s := sym.String()
				return s + "·δ = " + r1.Form.B.String() + " − " + r2.Form.B.String(), "a constant value for " + s
			},
		})
	}
	if a1 != a2 {
		return unknown(Blocker{
			Slug: "nest-stride-mismatch",
			reason: deferText(func() string {
				return refs.text(r1) + " and " + refs.text(r2) + " advance with different strides (" + itoa(a1) + " and " + itoa(a2) + ") through a summarized loop"
			}),
			cert: func() (string, string) {
				return itoa(a1) + "·i1 + " + r1.Form.B.String() + " = " + itoa(a2) + "·i2 + " + r2.Form.B.String(),
					"equal strides (mixed-stride nest pairs are not solved)"
			},
		})
	}
	a := a1

	// Rename r2's inner induction variables: the two sides choose inner
	// iterations independently, while shared invariants cancel in D.
	b2 := r2.Form.B
	for _, s := range r2.Form.B.Symbols() {
		if !ni.inner[s] {
			continue
		}
		var ok bool
		b2, ok = b2.Substitute(s, poly.Sym(primedName(s)))
		if !ok {
			return unknown(Blocker{
				Pos:  refs.pos(r2),
				Slug: "nest-nonlinear-subscript",
				reason: deferText(func() string {
					return "subscript of " + refs.text(r2) + " is nonlinear in the inner induction variable " + s
				}),
				cert: func() (string, string) {
					return "footprint of " + refs.text(r2) + " across iterations of " + g.IV, "a subscript linear in " + s
				},
			})
		}
	}
	d := r1.Form.B.Sub(b2)
	rng := facts.BoundsUnder(d, nestBase)
	g0, c0 := congruenceOf(d)

	// The largest iteration distance two real iterations can be apart.
	maxAbs := int64(nestDistanceScan)
	if g.HasUB {
		maxAbs = g.UBConst - 1
	}
	if maxAbs <= 0 {
		return evidence(pairNone, fixedText("single-iteration loop"))
	}

	if a == 0 {
		return resolveNestZeroStride(r1, r2, g, ni, d, rng, g0, c0, refs)
	}

	if !rng.Bounded() {
		// Footprint distance unbounded under the known facts: only the gcd
		// congruence can still refute every candidate distance.
		if g0 > 0 && !congruenceSolvable(a, c0, g0, maxAbs) {
			return evidence(pairNone, deferText(func() string {
				return "no carried collision: " + itoa(a) + "·δ ≡ " + itoa(c0) + " (mod " + itoa(g0) +
					") has no solution within " + itoa(maxAbs) + " iteration(s)"
			}))
		}
		if g0 == 0 {
			// D is constant: the collision distance is exactly c0/a.
			return resolveNestConstDistance(r1, r2, g, ni, a, c0, maxAbs, refs)
		}
		return unknown(Blocker{
			Slug: "nest-symbolic-range",
			reason: deferText(func() string {
				return "footprint distance of " + refs.text(r1) + " and " + refs.text(r2) + " is " + d.String() + ", unbounded under the known facts"
			}),
			cert: func() (string, string) {
				return itoa(a) + "·δ = " + d.String() + " with δ ≠ 0", "bounds for " + strings.Join(unboundedSymbols(d, facts), ", ")
			},
		})
	}

	// Bounded distance range: enumerate every candidate δ and keep the ones
	// the interval and the congruence both admit.
	var candidates []int64
	for dist := int64(1); dist <= maxAbs && dist <= nestDistanceScan; dist++ {
		if m := abs64(a) * dist; m > rng.Hi && -m < rng.Lo {
			break // |a·δ| only grows; nothing further can land in range
		}
		for _, sd := range []int64{dist, -dist} {
			x := a * sd
			if x < rng.Lo || x > rng.Hi {
				continue
			}
			if g0 > 0 && !congruent(x, c0, g0) {
				continue
			}
			candidates = append(candidates, sd)
		}
	}
	if len(candidates) == 0 {
		return evidence(pairNone, deferText(func() string {
			if g0 > 1 {
				return "no carried collision: " + itoa(a) + "·δ ∈ " + rng.String() + " with " + itoa(a) + "·δ ≡ " + itoa(c0) +
					" (mod " + itoa(g0) + ") has no solution for 1 ≤ |δ| ≤ " + itoa(maxAbs)
			}
			return "no carried collision: " + itoa(a) + "·δ stays outside the footprint distance range " + rng.String() +
				" for 1 ≤ |δ| ≤ " + itoa(maxAbs)
		}))
	}
	for _, sd := range candidates {
		if o, ok := solveNestCollision(r1, r2, sd, a, d, ni, refs); ok {
			return o
		}
	}
	first := candidates[0]
	return unknown(Blocker{
		Slug:   "nest-witness",
		reason: deferText(func() string { return nestWitnessReason(refs.text(r1), refs.text(r2), itoa(abs64(first))) }),
		cert: func() (string, string) {
			return itoa(a) + "·δ = " + d.String() + " at δ = " + itoa(first), nestWitnessMissing
		},
	})
}

// nestWitnessReason and nestWitnessMissing are the why-certificate of a
// possible collision no concrete witness could be built for.
func nestWitnessReason(t1, t2, dist string) string {
	return t1 + " and " + t2 + " may collide at iteration distance " + dist +
		", but no replayable witness is constructible (guarded references or symbolic inner bounds)"
}

const nestWitnessMissing = "constant inner loop bounds and unguarded references for a concrete witness"

// resolveNestZeroStride handles a = 0: the outer iteration number drops
// out, so the pair collides across iterations exactly when D = B1 − B2′
// can reach zero.
func resolveNestZeroStride(r1, r2 *ir.Ref, g *ir.Graph, ni *nestInfo, d poly.Poly, rng rangefacts.Interval, g0, c0 int64, refs *loopRefs) pairOutcome {
	if (rng.HasLo && rng.Lo >= 1) || (rng.HasHi && rng.Hi <= -1) {
		return evidence(pairNone, deferText(func() string {
			return "footprints never meet: " + d.String() + " ∈ " + rng.String() + " excludes 0"
		}))
	}
	if g0 > 0 && !congruent(0, c0, g0) {
		return evidence(pairNone, deferText(func() string {
			return "footprints never meet: " + d.String() + " ≡ " + itoa(mod(c0, g0)) + " (mod " + itoa(g0) + ") excludes 0"
		}))
	}
	if d.IsZero() {
		// Identical footprint every outer iteration; any element collides at
		// distance 1.
		if o, ok := solveNestCollision(r1, r2, 1, 0, d, ni, refs); ok {
			return o
		}
		return unknown(Blocker{
			Slug: "nest-witness",
			reason: deferText(func() string {
				return refs.text(r1) + " and " + refs.text(r2) + " touch the same elements in every iteration of " + g.IV +
					", but no replayable witness is constructible (guarded references or symbolic inner bounds)"
			}),
			cert: func() (string, string) {
				return refs.text(r1) + " − " + refs.text(r2) + " = 0", nestWitnessMissing
			},
		})
	}
	// Any inner values making D = 0 collide in every two outer iterations,
	// so the witness uses distance 1.
	if o, ok := solveNestCollision(r1, r2, 1, 0, d, ni, refs); ok {
		return o
	}
	return unknown(Blocker{
		Slug: "nest-symbolic-range",
		reason: deferText(func() string {
			return "whether the footprints of " + refs.text(r1) + " and " + refs.text(r2) + " overlap depends on " + d.String()
		}),
		cert: func() (string, string) {
			s := d.String()
			return s + " = 0 for independent inner iterations", "a bound excluding 0 for " + s
		},
	})
}

// resolveNestConstDistance handles a constant D with a nonzero stride: the
// unique candidate distance is c0/a.
func resolveNestConstDistance(r1, r2 *ir.Ref, g *ir.Graph, ni *nestInfo, a, c0, maxAbs int64, refs *loopRefs) pairOutcome {
	if c0%a != 0 {
		return evidence(pairNone, deferText(func() string {
			return "offset " + itoa(c0) + " is not divisible by stride " + itoa(a)
		}))
	}
	delta := c0 / a
	if delta == 0 {
		return evidence(pairIndependent, fixedText("collide only within one iteration (δ = 0)"))
	}
	if abs64(delta) > maxAbs {
		return evidence(pairNone, deferText(func() string {
			return "collision distance " + itoa(abs64(delta)) + " exceeds the trip count"
		}))
	}
	if o, ok := solveNestCollision(r1, r2, delta, a, poly.Const(c0), ni, refs); ok {
		return o
	}
	return unknown(Blocker{
		Slug:   "nest-witness",
		reason: deferText(func() string { return nestWitnessReason(refs.text(r1), refs.text(r2), itoa(abs64(delta))) }),
		cert: func() (string, string) {
			return itoa(a) + "·δ = " + itoa(c0) + " at δ = " + itoa(delta), nestWitnessMissing
		},
	})
}

// solveNestCollision enumerates feasible inner-iteration tuples solving
// a·sd = D for the signed iteration distance sd (sd = i2 − i1; positive
// means r1 executes first) and, on success, returns the collision at
// concrete outer iterations 1 and 1+|sd|. Requirements for replayability:
// both references execute unconditionally, every enclosing inner loop has
// a constant normalized bound, and D mentions only inner induction
// variables (primed or not).
func solveNestCollision(r1, r2 *ir.Ref, sd, a int64, d poly.Poly, ni *nestInfo, refs *loopRefs) (pairOutcome, bool) {
	ctx1, ok1 := ni.refs[refs.expr(r1)]
	ctx2, ok2 := ni.refs[refs.expr(r2)]
	if !ok1 || !ok2 || ctx1.conditional || ctx2.conditional {
		return pairOutcome{}, false
	}
	for _, chain := range [][]string{ctx1.chain, ctx2.chain} {
		for _, v := range chain {
			if hi, ok := ni.constHi[v]; !ok || hi < 1 {
				return pairOutcome{}, false
			}
		}
	}
	vars := d.Symbols()
	his := make([]int64, len(vars))
	for i, v := range vars {
		hi, ok := ni.constHi[nestBase(v)]
		if !ok {
			return pairOutcome{}, false // non-inner symbol or symbolic inner bound
		}
		his[i] = hi
	}
	target := a * sd
	env := map[string]int64{}
	idx := make([]int64, len(vars))
	tried := int64(0)
	for {
		for i, v := range vars {
			env[v] = idx[i] + 1
		}
		if d.Eval(env) == target {
			// env binds r1's inner variables by source name and r2's by
			// primed name.
			c := collision{early: r1, late: r2, iterEarly: 1, iterLate: 1 + sd, env: env}
			if sd < 0 {
				c = collision{early: r2, late: r1, iterEarly: 1, iterLate: 1 - sd, env: env, earlyPrimed: true}
			}
			return pairOutcome{kind: pairConflict, conflict: c}, true
		}
		tried++
		if tried >= nestWitnessAssignments {
			return pairOutcome{}, false
		}
		// Odometer increment, deterministic enumeration order.
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < his[i] {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			return pairOutcome{}, false // odometer wrapped (or constant D missed the target)
		}
	}
}

// splitNestEnv separates a solved assignment into the unprimed (r1) and
// primed (r2, renamed back) halves.
func splitNestEnv(env map[string]int64) (unprimed, primed map[string]int64) {
	unprimed = map[string]int64{}
	primed = map[string]int64{}
	for k, v := range env {
		if b := nestBase(k); b != k {
			primed[b] = v
		} else {
			unprimed[k] = v
		}
	}
	return unprimed, primed
}

// nestCell evaluates a reference's subscript tuple under env, succeeding
// only when every subscript mentions only bound symbols.
func nestCell(ref *ast.ArrayRef, env map[string]int64) ([]int64, bool) {
	out := make([]int64, len(ref.Subs))
	for k, sub := range ref.Subs {
		p, err := sema.ExprToPoly(sub)
		if err != nil {
			return nil, false
		}
		for _, s := range p.Symbols() {
			if _, ok := env[s]; !ok {
				return nil, false
			}
		}
		out[k] = p.Eval(env)
	}
	return out, true
}

// congruenceOf extracts the gcd congruence of a distance polynomial: over
// integer symbol values, D ≡ c0 (mod g0) where c0 is the constant term
// and g0 the gcd of the non-constant monomial coefficients (g0 = 0 for a
// constant D).
func congruenceOf(d poly.Poly) (g0, c0 int64) {
	c0 = d.ConstPart()
	for _, m := range d.Monomials() {
		if len(m.Symbols) == 0 {
			continue
		}
		g0 = gcd(g0, abs64(m.Coeff))
	}
	return g0, c0
}

// congruent reports x ≡ c0 (mod g0).
func congruent(x, c0, g0 int64) bool { return mod(x-c0, g0) == 0 }

// congruenceSolvable reports whether some δ with 1 ≤ |δ| ≤ maxAbs has
// a·δ ≡ c0 (mod g0). a·δ mod g0 cycles with period dividing g0, so
// scanning min(maxAbs, g0) distances is exhaustive.
func congruenceSolvable(a, c0, g0, maxAbs int64) bool {
	limit := g0
	if maxAbs < limit {
		limit = maxAbs
	}
	for d := int64(1); d <= limit; d++ {
		if congruent(a*d, c0, g0) || congruent(-a*d, c0, g0) {
			return true
		}
	}
	return false
}

// mod is the nonnegative remainder.
func mod(x, m int64) int64 {
	if m == 0 {
		return x
	}
	r := x % m
	if r < 0 {
		r += m
	}
	return r
}

// unboundedSymbols names the symbols of d lacking a bounded interval, for
// the "missing fact" line of a why-certificate.
func unboundedSymbols(d poly.Poly, facts *rangefacts.Facts) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range d.Symbols() {
		b := nestBase(s)
		if seen[b] {
			continue
		}
		seen[b] = true
		if !facts.SymbolRange(b).Bounded() {
			out = append(out, b)
		}
	}
	sort.Strings(out)
	if len(out) == 0 {
		return []string{"the footprint distance"}
	}
	return out
}
