// Package rangefacts is the symbolic range-and-relation analysis behind
// the classifier's symbolic comparisons: a monotone interval/relation
// domain over loop-invariant scalars, induction variables, and bound
// expressions.
//
// A Facts value holds two layers:
//
//   - relational facts: polynomials proven ≥ 0 (or ≥ 1 when strict), each
//     with its provenance — derived from normalized loop bounds
//     (1 ≤ v ≤ UB for every enclosing and inner loop of the analyzed
//     loop), guard conditions dominating the loop, symbolic array
//     dimensions (dim(A,k) ≥ 1), and caller-supplied assumptions (the Go
//     front end seeds len() operands as n ≥ 0);
//   - per-symbol intervals: a fixpoint of the relational facts computed by
//     the same contract the dataflow solver honors — deterministic
//     iteration order, monotone narrowing, and a fuel budget whose
//     exhaustion degrades to the claim-nothing answer (every query
//     returns "unknown", never a wrong bound).
//
// Queries (Bounds, Sign, ProveGE, ProveNonZero) resolve comparisons
// between poly.Poly values; Describe renders the fact set for
// why-certificates, and Signature folds it into the driver's 128-bit
// memo fingerprint so cached solve results can never be replayed under a
// different fact environment.
package rangefacts

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/poly"
	"repro/internal/sema"
	"repro/internal/token"
)

// Fact is one relational fact: P ≥ 0, or P ≥ 1 when Strict.
type Fact struct {
	P      poly.Poly
	Strict bool
	// Why names the fact's provenance ("loop bound", "guard", "dim",
	// "len", "assume") for why-certificates.
	Why string
}

// NonNeg builds the fact p ≥ 0.
func NonNeg(p poly.Poly, why string) Fact { return Fact{P: p, Why: why} }

// Positive builds the fact p ≥ 1.
func Positive(p poly.Poly, why string) Fact { return Fact{P: p, Strict: true, Why: why} }

// AtLeast builds the fact sym ≥ c.
func AtLeast(sym string, c int64, why string) Fact {
	return Fact{P: poly.Sym(sym).Sub(poly.Const(c)), Why: why}
}

// String renders the fact canonically, e.g. "n - 1 >= 0 (loop bound)".
func (f Fact) String() string {
	op := ">= 0"
	if f.Strict {
		op = ">= 1"
	}
	if f.Why == "" {
		return f.P.String() + " " + op
	}
	return fmt.Sprintf("%s %s (%s)", f.P.String(), op, f.Why)
}

// Interval is a (possibly half-open) integer interval.
type Interval struct {
	Lo, Hi       int64
	HasLo, HasHi bool
}

// Bounded reports both endpoints known.
func (iv Interval) Bounded() bool { return iv.HasLo && iv.HasHi }

// String renders "[lo, hi]" with "-inf"/"+inf" for open ends.
func (iv Interval) String() string {
	lo, hi := "-inf", "+inf"
	if iv.HasLo {
		lo = fmt.Sprintf("%d", iv.Lo)
	}
	if iv.HasHi {
		hi = fmt.Sprintf("%d", iv.Hi)
	}
	return "[" + lo + ", " + hi + "]"
}

// boundLimit clamps derived endpoints: anything beyond it is treated as
// unbounded, which keeps every interval operation far from int64 overflow.
const boundLimit = int64(1) << 40

// maxRounds bounds the narrowing fixpoint independently of fuel; the
// domain has no infinite descending chains below boundLimit, but the cap
// keeps worst-case latency flat like the solver's pass bound does.
const maxRounds = 8

// Facts is the solved fact environment of one analyzed loop.
type Facts struct {
	facts []Fact
	iv    map[string]Interval
	// exhausted marks a fuel-exhausted solve: every query degrades to
	// "unknown" (the claim-nothing answer), mirroring dataflow.Result.
	exhausted bool
	sig       string
}

// Exhausted reports that the fixpoint ran out of fuel and the fact set
// claims nothing.
func (f *Facts) Exhausted() bool { return f == nil || f.exhausted }

// Empty reports an absent or fact-free environment.
func (f *Facts) Empty() bool { return f == nil || len(f.facts) == 0 }

// Signature returns a canonical rendering of the raw fact set (the
// intervals are a pure function of it), for fingerprint folding. The
// empty environment signs as "".
func (f *Facts) Signature() string {
	if f == nil {
		return ""
	}
	return f.sig
}

// Facts returns the relational facts in canonical order.
func (f *Facts) Facts() []Fact {
	if f == nil {
		return nil
	}
	return f.facts
}

// Describe renders the available facts for why-certificates: the
// relational facts in canonical order, capped to keep diagnostics
// readable ("none" when the environment is empty or exhausted).
func (f *Facts) Describe() string {
	if f.Empty() || f.exhausted {
		return "none"
	}
	const limit = 6
	parts := make([]string, 0, limit+1)
	for i, fa := range f.facts {
		if i >= limit {
			parts = append(parts, fmt.Sprintf("(+%d more)", len(f.facts)-i))
			break
		}
		parts = append(parts, fa.String())
	}
	return strings.Join(parts, "; ")
}

// SymbolRange returns the solved interval of one symbol.
func (f *Facts) SymbolRange(sym string) Interval {
	if f == nil || f.exhausted {
		return Interval{}
	}
	return f.iv[sym]
}

// Bounds computes a proven interval for p by interval arithmetic over its
// monomials. Unknown symbols and exhausted environments yield open ends.
func (f *Facts) Bounds(p poly.Poly) Interval {
	return f.BoundsUnder(p, nil)
}

// BoundsUnder is Bounds with a symbol indirection: every symbol of p is
// resolved through base before its interval is looked up. The race
// certifier's nest analysis compares two independent executions of the
// same loop by renaming one side's inner induction variables to primed
// copies; a primed copy ranges over exactly the base symbol's interval.
// A nil base is the identity.
func (f *Facts) BoundsUnder(p poly.Poly, base func(string) string) Interval {
	if f == nil || f.exhausted {
		if c, ok := p.IsConst(); ok {
			return Interval{Lo: c, Hi: c, HasLo: true, HasHi: true}
		}
		return Interval{}
	}
	out := Interval{Lo: 0, Hi: 0, HasLo: true, HasHi: true}
	for _, m := range p.Monomials() {
		mi := Interval{Lo: m.Coeff, Hi: m.Coeff, HasLo: true, HasHi: true}
		for _, s := range m.Symbols {
			if base != nil {
				s = base(s)
			}
			mi = mulInterval(mi, f.iv[s])
		}
		out = addInterval(out, mi)
	}
	return out
}

// LowerBound returns a proven constant lower bound of p, consulting both
// the interval layer and single relational facts (p − fact ≥ const).
func (f *Facts) LowerBound(p poly.Poly) (int64, bool) {
	if f == nil || f.exhausted {
		if c, ok := p.IsConst(); ok {
			return c, true
		}
		return 0, false
	}
	best, ok := int64(0), false
	if b := f.Bounds(p); b.HasLo {
		best, ok = b.Lo, true
	}
	// p = fact.P + c with c constant: p ≥ c (+1 when strict).
	for _, fa := range f.facts {
		if c, isC := p.Sub(fa.P).IsConst(); isC {
			lb := c
			if fa.Strict {
				lb++
			}
			if !ok || lb > best {
				best, ok = lb, true
			}
		}
	}
	return best, ok
}

// UpperBound returns a proven constant upper bound of p.
func (f *Facts) UpperBound(p poly.Poly) (int64, bool) {
	lb, ok := f.LowerBound(p.Neg())
	return -lb, ok
}

// ProveGE reports a proof of p ≥ q.
func (f *Facts) ProveGE(p, q poly.Poly) bool {
	d := p.Sub(q)
	if lb, ok := f.LowerBound(d); ok && lb >= 0 {
		return true
	}
	return false
}

// ProveGT reports a proof of p > q.
func (f *Facts) ProveGT(p, q poly.Poly) bool {
	lb, ok := f.LowerBound(p.Sub(q))
	return ok && lb >= 1
}

// ProveNonZero reports a proof of p ≠ 0.
func (f *Facts) ProveNonZero(p poly.Poly) bool {
	if lb, ok := f.LowerBound(p); ok && lb >= 1 {
		return true
	}
	if ub, ok := f.UpperBound(p); ok && ub <= -1 {
		return true
	}
	return false
}

// Sign resolves the sign of p: −1, 0, or +1 with ok=true on proof.
func (f *Facts) Sign(p poly.Poly) (int, bool) {
	lb, okLo := f.LowerBound(p)
	ub, okHi := f.UpperBound(p)
	switch {
	case okLo && lb >= 1:
		return 1, true
	case okHi && ub <= -1:
		return -1, true
	case okLo && okHi && lb == 0 && ub == 0:
		return 0, true
	}
	return 0, false
}

// --- derivation ----------------------------------------------------------

// Derive builds and solves the fact environment of one loop of a checked,
// normalized program: loop-bound facts for the loop itself, every
// enclosing loop, and every inner loop; guard facts from the If
// conditions dominating the loop; dim facts for symbolic array
// dimensions; plus the caller's assumptions. info may be nil (dim facts
// are then skipped); fuel ≤ 0 uses a never-binding default.
func Derive(prog *ast.Program, info *sema.Info, loop *ast.DoLoop, assume []Fact, fuel int64) *Facts {
	var facts []Fact

	// Enclosing context: loops and guard conditions on the path from the
	// program root to the loop. Guard conditions hold whenever the body
	// runs; enclosing-loop IV ranges hold for the same reason.
	if prog != nil {
		path, guards := enclosing(prog.Body, loop)
		for _, dl := range path {
			facts = loopBoundFacts(facts, dl)
		}
		for _, g := range guards {
			facts = append(facts, condFacts(g.cond, g.truth)...)
		}
	}
	// The loop itself and its inner loops. Their IV facts are conditional
	// on iterations existing, which is exactly how consumers quantify
	// (footprints and kill distances range over actual instances). The
	// same walk of the body finds the symbolic dimensions of referenced
	// arrays: every dim size is ≥ 1 (sema rejects nonpositive declared
	// sizes; undeclared multi-subscript arrays linearize over
	// sema.DefaultDims symbols). solve orders the facts, so the walk's
	// interleaving of the two kinds does not show.
	if loop != nil {
		facts = loopBoundFacts(facts, loop)
		var dimsDone map[string]bool
		ast.Inspect(loop.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.DoLoop:
				facts = loopBoundFacts(facts, x)
			case *ast.ArrayRef:
				if info != nil {
					facts = dimFacts(facts, &dimsDone, x, info)
				}
			}
			return true
		})
	}
	facts = append(facts, assume...)

	return solve(facts, fuel)
}

// New solves a caller-built fact set directly (tests, fabricated
// negative controls, and the front ends' assumption channel).
func New(facts []Fact, fuel int64) *Facts { return solve(facts, fuel) }

// guard is one If condition on the path to the loop with its known truth.
type guard struct {
	cond  ast.Expr
	truth bool
}

// enclosing returns the DoLoop chain strictly enclosing target and the
// guards dominating it, in source order. The target itself is excluded.
func enclosing(body []ast.Stmt, target *ast.DoLoop) (path []*ast.DoLoop, guards []guard) {
	var loops []*ast.DoLoop
	var conds []guard
	var found bool
	var walk func(stmts []ast.Stmt)
	walk = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			if found {
				return
			}
			switch st := s.(type) {
			case *ast.DoLoop:
				if st == target {
					found = true
					path = append([]*ast.DoLoop(nil), loops...)
					guards = append([]guard(nil), conds...)
					return
				}
				loops = append(loops, st)
				walk(st.Body)
				loops = loops[:len(loops)-1]
			case *ast.If:
				conds = append(conds, guard{cond: st.Cond, truth: true})
				walk(st.Then)
				conds[len(conds)-1].truth = false
				walk(st.Else)
				conds = conds[:len(conds)-1]
			}
		}
	}
	walk(body)
	return path, guards
}

// loopBoundFacts appends 1 ≤ v ≤ UB for a normalized loop to facts;
// non-normalized lower bounds still yield lo ≤ v ≤ hi when the bounds
// convert to polynomials.
func loopBoundFacts(facts []Fact, dl *ast.DoLoop) []Fact {
	v := poly.Sym(dl.Var)
	if lo, err := sema.ExprToPoly(dl.Lo); err == nil {
		facts = append(facts, NonNeg(v.Sub(lo), "loop bound"))
	}
	if hi, err := sema.ExprToPoly(dl.Hi); err == nil {
		facts = append(facts, NonNeg(hi.Sub(v), "loop bound"))
	}
	return facts
}

// ParseAssumption parses a mini-language condition ("k >= 64",
// "n < 100 and k >= n") into assumption facts. Conjunctions split;
// every relational atom must convert (linear sides only), or the whole
// assumption is rejected — a silently dropped atom would weaken the
// assumption the caller believes is in force. This is how `vet -assume`
// and the service's assume field inject invariants the source cannot
// express.
func ParseAssumption(src string) ([]Fact, error) {
	prog, err := parser.ParseBytes([]byte("if "+src+" then\nendif\n"), nil)
	if err != nil {
		return nil, fmt.Errorf("assumption %q does not parse as a condition: %w", src, err)
	}
	var cond ast.Expr
	for _, st := range prog.Body {
		if iff, ok := st.(*ast.If); ok {
			cond = iff.Cond
			break
		}
	}
	if cond == nil {
		return nil, fmt.Errorf("assumption %q does not parse as a condition", src)
	}
	if err := checkAssumable(cond); err != nil {
		return nil, fmt.Errorf("assumption %q: %w", src, err)
	}
	facts := condFacts(cond, true)
	if len(facts) == 0 {
		return nil, fmt.Errorf("assumption %q yields no facts", src)
	}
	for i := range facts {
		facts[i].Why = "assumed"
	}
	return facts, nil
}

// checkAssumable rejects condition shapes condFacts would silently drop.
func checkAssumable(cond ast.Expr) error {
	switch e := cond.(type) {
	case *ast.Binary:
		switch e.Op {
		case token.AND:
			if err := checkAssumable(e.L); err != nil {
				return err
			}
			return checkAssumable(e.R)
		case token.LT, token.LEQ, token.GT, token.GEQ, token.EQ:
			if _, err := sema.ExprToPoly(e.L); err != nil {
				return fmt.Errorf("left side of %s is not linear: %v", ast.ExprString(cond), err)
			}
			if _, err := sema.ExprToPoly(e.R); err != nil {
				return fmt.Errorf("right side of %s is not linear: %v", ast.ExprString(cond), err)
			}
			return nil
		case token.NEQ:
			return fmt.Errorf("%s: != carries no one-sided range information; assume a direction instead", ast.ExprString(cond))
		}
	}
	return fmt.Errorf("%s is not a conjunction of linear comparisons", ast.ExprString(cond))
}

// condFacts converts a guard condition with known truth value into facts.
// Conjunctions split under truth, disjunctions under falsity (De Morgan);
// relational atoms become ≥-facts over the integers (a > b ⇔ a − b ≥ 1).
// Constructs that do not decompose soundly contribute nothing.
func condFacts(cond ast.Expr, truth bool) []Fact {
	switch e := cond.(type) {
	case *ast.Unary:
		if e.Op == token.NOT {
			return condFacts(e.X, !truth)
		}
	case *ast.Binary:
		switch e.Op {
		case token.AND:
			if truth {
				return append(condFacts(e.L, true), condFacts(e.R, true)...)
			}
		case token.OR:
			if !truth {
				return append(condFacts(e.L, false), condFacts(e.R, false)...)
			}
		case token.LT, token.LEQ, token.GT, token.GEQ, token.EQ, token.NEQ:
			l, errL := sema.ExprToPoly(e.L)
			r, errR := sema.ExprToPoly(e.R)
			if errL != nil || errR != nil {
				return nil
			}
			op := e.Op
			if !truth {
				op = negateRel(op)
			}
			switch op {
			case token.LT:
				return []Fact{Positive(r.Sub(l), "guard")}
			case token.LEQ:
				return []Fact{NonNeg(r.Sub(l), "guard")}
			case token.GT:
				return []Fact{Positive(l.Sub(r), "guard")}
			case token.GEQ:
				return []Fact{NonNeg(l.Sub(r), "guard")}
			case token.EQ:
				return []Fact{NonNeg(l.Sub(r), "guard"), NonNeg(r.Sub(l), "guard")}
			}
		}
	}
	return nil
}

func negateRel(op token.Kind) token.Kind {
	switch op {
	case token.LT:
		return token.GEQ
	case token.LEQ:
		return token.GT
	case token.GT:
		return token.LEQ
	case token.GEQ:
		return token.LT
	case token.EQ:
		return token.NEQ
	default: // NEQ
		return token.EQ
	}
}

// dimFacts appends dim(A,k) ≥ 1 for the sema.DefaultDims symbols of ref's
// array when ref has several subscripts and the array no declared dim,
// once per array: done records the arrays seen, and is made on first use.
func dimFacts(facts []Fact, done *map[string]bool, ref *ast.ArrayRef, info *sema.Info) []Fact {
	if len(ref.Subs) < 2 || (*done)[ref.Name] {
		return facts
	}
	if *done == nil {
		*done = map[string]bool{}
	}
	(*done)[ref.Name] = true
	if _, declared := info.Dims[ref.Name]; declared {
		return facts
	}
	for k := 0; k < len(ref.Subs); k++ {
		facts = append(facts, Positive(poly.Sym(fmt.Sprintf("%s#%d", ref.Name, k)), "dim"))
	}
	return facts
}

// --- fixpoint ------------------------------------------------------------

// defaultFuel is the never-binding derivation budget: the narrowing loop
// touches each (fact, symbol) pair at most maxRounds times.
func defaultFuel(nFacts int) int64 {
	f := int64(nFacts+1) * 8 * maxRounds
	if f < 256 {
		f = 256
	}
	return f
}

// keyedFact pairs a fact with its rendering, the canonical sort key.
type keyedFact struct {
	fact Fact
	key  string
}

// solve canonicalizes the fact set and runs the interval narrowing
// fixpoint under the fuel budget.
func solve(facts []Fact, fuel int64) *Facts {
	// Canonical order + dedupe: deterministic queries, Describe, and
	// Signature at every parallelism setting. Each fact's rendering is the
	// sort key, the dedupe key and its signature part, so it is computed
	// once per fact rather than per comparison.
	keyed := make([]keyedFact, len(facts))
	for i, fa := range facts {
		keyed[i] = keyedFact{fa, fa.String()}
	}
	sort.SliceStable(keyed, func(i, j int) bool { return keyed[i].key < keyed[j].key })
	facts = facts[:0:0]
	var sigs []string
	prev := ""
	for _, k := range keyed {
		if k.key != prev {
			facts = append(facts, k.fact)
			sigs = append(sigs, k.key)
			prev = k.key
		}
	}
	f := &Facts{facts: facts, iv: map[string]Interval{}, sig: strings.Join(sigs, ";")}

	if fuel <= 0 {
		fuel = defaultFuel(len(facts))
	}

	// Narrow per-symbol intervals from linear occurrences: a fact
	// c·v + rest ≥ b (b = 0 or 1) bounds v once rest has a finite
	// endpoint: c·v ≥ b − rest ≥ b − hi(rest).
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, fa := range facts {
			base := int64(0)
			if fa.Strict {
				base = 1
			}
			for _, sym := range fa.P.Symbols() {
				if fuel--; fuel < 0 {
					f.exhausted = true
					f.iv = map[string]Interval{}
					return f
				}
				coeff, rest, ok := fa.P.CoeffOf(sym)
				if !ok {
					continue
				}
				c, isC := coeff.IsConst()
				if !isC || c == 0 {
					continue
				}
				rb := f.Bounds(rest)
				if !rb.HasHi {
					continue
				}
				// c·v ≥ base − hi(rest).
				num := base - rb.Hi
				cur := f.iv[sym]
				if c > 0 {
					lo := ceilDiv(num, c)
					if clampOK(lo) && (!cur.HasLo || lo > cur.Lo) {
						cur.Lo, cur.HasLo = lo, true
						changed = true
					}
				} else {
					hi := floorDiv(num, c)
					if clampOK(hi) && (!cur.HasHi || hi < cur.Hi) {
						cur.Hi, cur.HasHi = hi, true
						changed = true
					}
				}
				if cur.HasLo && cur.HasHi && cur.Lo > cur.Hi {
					// Contradictory facts describe an empty execution
					// (e.g. a guard that never lets the loop run): claim
					// nothing rather than "anything follows".
					f.exhausted = true
					f.iv = map[string]Interval{}
					return f
				}
				f.iv[sym] = cur
			}
		}
		if !changed {
			break
		}
	}
	return f
}

func clampOK(v int64) bool { return v > -boundLimit && v < boundLimit }

// --- interval arithmetic -------------------------------------------------

func addInterval(a, b Interval) Interval {
	out := Interval{}
	if a.HasLo && b.HasLo {
		if lo, ok := addOK(a.Lo, b.Lo); ok {
			out.Lo, out.HasLo = lo, true
		}
	}
	if a.HasHi && b.HasHi {
		if hi, ok := addOK(a.Hi, b.Hi); ok {
			out.Hi, out.HasHi = hi, true
		}
	}
	return out
}

// mulInterval multiplies intervals; open ends propagate unless the other
// side is exactly zero.
func mulInterval(a, b Interval) Interval {
	if a.HasLo && a.HasHi && a.Lo == 0 && a.Hi == 0 {
		return a
	}
	if b.HasLo && b.HasHi && b.Lo == 0 && b.Hi == 0 {
		return b
	}
	if !a.Bounded() || !b.Bounded() {
		return Interval{}
	}
	vals := [4]int64{}
	oks := true
	pairs := [4][2]int64{{a.Lo, b.Lo}, {a.Lo, b.Hi}, {a.Hi, b.Lo}, {a.Hi, b.Hi}}
	for i, p := range pairs {
		v, ok := mulOK(p[0], p[1])
		if !ok {
			oks = false
			break
		}
		vals[i] = v
	}
	if !oks {
		return Interval{}
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return Interval{Lo: lo, Hi: hi, HasLo: true, HasHi: true}
}

func addOK(a, b int64) (int64, bool) {
	s := a + b
	if !clampOK(s) {
		return 0, false
	}
	return s, true
}

func mulOK(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/a != b || !clampOK(p) {
		return 0, false
	}
	return p, true
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}
