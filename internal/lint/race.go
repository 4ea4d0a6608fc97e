package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/depend"
	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/poly"
	"repro/internal/rangefacts"
	"repro/internal/sema"
	"repro/internal/token"
)

// raceAnalyzer is the certifying parallelism analyzer: every loop gets one
// of three verdicts, each carrying checkable evidence.
//
//   - provably parallel: no pair of references can touch the same array
//     element in two different iterations (per-pair δ evidence attached),
//     confirmed by running the loop's iterations in a shuffled order on the
//     interpreter and comparing final memories.
//   - provably racy: a concrete witness — two iteration numbers, the
//     conflicting references, and the colliding element — derived from the
//     cross-iteration dependence distance and validated by replaying the
//     witness iterations on the interpreter.
//   - unknown: the blocking construct is named (non-affine subscript,
//     symbolic distance, scalar assignment, summarized inner loop, or a
//     potential conflict guarded by a branch).
//
// The static side consumes the δ-reaching-references solution through
// internal/depend plus an exact pairwise subscript solver; the dynamic
// side lives in replay.go. A disagreement between the two (a witness that
// does not replay, a "parallel" loop whose permuted execution diverges, or
// a carried dependence the certifier missed) is itself reported as an
// error finding — the analyzer checks its own claims.
var raceAnalyzer = &Analyzer{
	ID:      "race",
	Doc:     "certifying loop parallelism: provably parallel, provably racy (with replayed witness), or unknown",
	Problem: "δ-reaching references (§4.3) + exact subscript collision solving",
	Default: diag.Warning,
	Run:     runRace,
}

// VerdictClass is the three-way parallelism classification.
type VerdictClass int

// The verdict classes.
const (
	VerdictUnknown VerdictClass = iota
	VerdictParallel
	VerdictRacy
)

// String names the verdict class.
func (v VerdictClass) String() string {
	switch v {
	case VerdictParallel:
		return "parallel"
	case VerdictRacy:
		return "racy"
	}
	return "unknown"
}

// Witness is the concrete evidence behind a provably-racy verdict: in the
// normalized iteration space, the reference FromText executed at iteration
// IterEarly and the reference ToText executed at iteration IterLate touch
// the same element of Array, and at least one of them is a store.
type Witness struct {
	IV        string
	IterEarly int64
	IterLate  int64
	// Distance is IterLate − IterEarly (≥ 1).
	Distance int64
	// Kind classifies the dependence: flow, anti, or output.
	Kind  string
	Array string
	// FromText / ToText are the rendered source references (early one
	// first); FromStore / ToStore their access kinds.
	FromText, ToText   string
	FromStore, ToStore bool
	// FromPos / ToPos are the reference positions for diagnostics.
	FromPos, ToPos token.Pos
	// Cell is the colliding subscript tuple when it is compile-time
	// computable (HasCell); symbolic programs leave it to the replay.
	Cell    []int64
	HasCell bool
}

// CellString renders the colliding element, e.g. "A[3]" or "A[2, 7]".
func (w *Witness) CellString() string {
	if !w.HasCell {
		return w.Array + "[?]"
	}
	parts := make([]string, len(w.Cell))
	for i, c := range w.Cell {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return w.Array + "[" + strings.Join(parts, ", ") + "]"
}

// Blocker names one construct preventing certification. Beyond the prose
// Reason, a blocker is a structured why-certificate: the taxonomy slug,
// the exact comparison the certifier could not resolve, the range facts
// that were available when it tried, and the single missing fact that
// would settle it.
type Blocker struct {
	Pos    token.Pos
	Reason string
	// Slug is the stable taxonomy identifier (one of BlockerSlugs).
	Slug string
	// Comparison renders the failed comparison, e.g. "n·δ = j − j' + 6".
	Comparison string
	// Facts lists the range facts in scope when the comparison failed.
	Facts string
	// Missing names the single fact that would resolve the comparison.
	Missing string
}

// BlockerSlugs is the closed taxonomy of certification blockers, exported
// so output consumers (SARIF rule metadata, the corpus harness) can
// bucket unknown verdicts without parsing prose.
func BlockerSlugs() []string {
	return []string{
		"fuel-exhausted",
		"guarded-conflict",
		"inner-bound-ref",
		"nest-nonlinear-subscript",
		"nest-stride-mismatch",
		"nest-symbolic-range",
		"nest-symbolic-stride",
		"nest-witness",
		"nonaffine-nest-subscript",
		"nonaffine-subscript",
		"scalar-carried",
		"symbolic-bound-scan",
		"symbolic-coeffs",
		"symbolic-distance",
		"symbolic-stride",
	}
}

// PairEvidence records why one conflicting reference pair cannot carry a
// dependence — the per-reference δ evidence attached to parallel verdicts.
type PairEvidence struct {
	FromText, ToText string
	Reason           string
}

// Verdict is the certified classification of one loop.
type Verdict struct {
	Class VerdictClass
	// IV is the loop's induction variable.
	IV string
	// Witness backs a racy verdict.
	Witness *Witness
	// Blockers back an unknown verdict (sorted by position then reason).
	Blockers []Blocker
	// Evidence backs a parallel verdict: one entry per conflicting
	// reference pair, stating why no carried collision exists.
	Evidence []PairEvidence
	// CarriedDeps counts the loop-carried edges of the dependence graph
	// (internal/depend) within maxBlockingDist, for cross-checking.
	CarriedDeps int
}

// pairOutcome is the result of resolving one reference pair.
type pairOutcome struct {
	kind    pairKind
	witness *Witness // kind == pairConflict
	reason  string   // evidence (pairNone/pairIndependent)
	blocker Blocker  // why-certificate (pairUnknown)
}

type pairKind int

const (
	pairNone        pairKind = iota // provably never collide across iterations
	pairIndependent                 // collide only within one iteration (δ = 0)
	pairConflict                    // collide at a concrete iteration pair
	pairUnknown                     // not decidable statically
)

// differentStrideScan bounds the collision-distance search when the loop
// bound is symbolic and the strides differ.
const differentStrideScan = 4096

// maxBlockingDist bounds the dependence-distance search in the carried
// dependence cross-check (small distances are the ones unrolling and the
// paper's framework reason about).
const maxBlockingDist = 8

// raceCert is one loop's race certification: the static verdict and its
// dynamic check.
type raceCert struct {
	verdict *Verdict
	// job is the verdict's check on the interpreter, settled by the
	// program's bridge; nil for unknown verdicts and program-less contexts.
	job *bridgeJob
}

// checkCerts hands the verdicts of ctxs to one certification bridge for
// the program and returns the interpreter runs it made. Racy verdicts
// replay their witness; parallel verdicts run the permutation check.
func checkCerts(prog *ast.Program, ctxs []*Context, parallelism int) int {
	if prog == nil {
		return 0
	}
	var jobs []*bridgeJob
	for _, c := range ctxs {
		rc := c.race
		switch rc.verdict.Class {
		case VerdictRacy:
			rc.job = &bridgeJob{loop: c.Loop.Loop, witness: rc.verdict.Witness}
		case VerdictParallel:
			rc.job = &bridgeJob{loop: c.Loop.Loop, shuffleSeed: permutationSeed}
		default:
			continue
		}
		jobs = append(jobs, rc.job)
	}
	if len(jobs) == 0 {
		return 0
	}
	b := newBridge(prog)
	b.run(jobs, parallelism)
	return b.runs
}

// runRace renders the loop's certified verdict and its bridge outcome as
// findings. Outside RunOn it certifies and checks the loop by itself.
func runRace(c *Context) []diag.Finding {
	if c.race == nil {
		c.race = &raceCert{verdict: CertifyLoop(c)}
		checkCerts(c.Program, []*Context{c}, 1)
	}
	v, job := c.race.verdict, c.race.job
	loop := c.Loop.Loop
	pos := loop.Pos()
	var out []diag.Finding

	switch v.Class {
	case VerdictRacy:
		w := v.Witness
		f := diag.Finding{
			Analyzer: "race",
			Pos:      pos,
			Severity: diag.Warning,
			Message: fmt.Sprintf("loop over %s is provably racy: %s (iteration %d) and %s (iteration %d) touch %s — %s dependence at distance %d",
				v.IV, accessText(w.FromText, w.FromStore), w.IterEarly,
				accessText(w.ToText, w.ToStore), w.IterLate, w.CellString(), w.Kind, w.Distance),
			Related: []diag.Related{
				{Pos: w.FromPos, Message: fmt.Sprintf("%s at iteration %d", accessText(w.FromText, w.FromStore), w.IterEarly)},
				{Pos: w.ToPos, Message: fmt.Sprintf("%s at iteration %d", accessText(w.ToText, w.ToStore), w.IterLate)},
			},
			Detail: map[string]string{
				"verdict":   "racy",
				"iv":        v.IV,
				"iterEarly": fmt.Sprintf("%d", w.IterEarly),
				"iterLate":  fmt.Sprintf("%d", w.IterLate),
				"distance":  fmt.Sprintf("%d", w.Distance),
				"kind":      w.Kind,
				"cell":      w.CellString(),
				"carried":   fmt.Sprintf("%d", v.CarriedDeps),
			},
		}
		if job != nil {
			if err := job.err; err != nil {
				out = append(out, diag.Finding{
					Analyzer: "race",
					Pos:      pos,
					Severity: diag.Error,
					Message: fmt.Sprintf("certification bridge failure: racy witness for the loop over %s did not replay on the interpreter: %v",
						v.IV, err),
					Detail: map[string]string{"verdict": "racy", "replay": "failed"},
				})
				f.Detail["replay"] = "failed"
			} else {
				f.Detail["replay"] = "confirmed"
			}
		}
		out = append(out, f)

	case VerdictParallel:
		f := diag.Finding{
			Analyzer: "race",
			Pos:      pos,
			Severity: diag.Info,
			Message: fmt.Sprintf("loop over %s is provably parallel: no loop-carried dependence across %d conflicting reference pair(s)",
				v.IV, len(v.Evidence)),
			Detail: map[string]string{
				"verdict": "parallel",
				"iv":      v.IV,
				"pairs":   fmt.Sprintf("%d", len(v.Evidence)),
			},
		}
		if ev := evidenceSummary(v.Evidence); ev != "" {
			f.Detail["evidence"] = ev
		}
		if v.CarriedDeps > 0 {
			// The dependence graph disagrees with the certification — one of
			// the two is wrong; surface it loudly instead of guessing.
			out = append(out, diag.Finding{
				Analyzer: "race",
				Pos:      pos,
				Severity: diag.Error,
				Message: fmt.Sprintf("certification inconsistency: loop over %s certified parallel but the dependence graph carries %d edge(s)",
					v.IV, v.CarriedDeps),
				Detail: map[string]string{"verdict": "parallel", "carried": fmt.Sprintf("%d", v.CarriedDeps)},
			})
		}
		if job != nil {
			if err := job.err; err != nil {
				out = append(out, diag.Finding{
					Analyzer: "race",
					Pos:      pos,
					Severity: diag.Error,
					Message: fmt.Sprintf("certification bridge failure: loop over %s certified parallel but a shuffled iteration order diverged: %v",
						v.IV, err),
					Detail: map[string]string{"verdict": "parallel", "permutation": "diverged"},
				})
				f.Detail["permutation"] = "diverged"
			} else {
				f.Detail["permutation"] = "verified"
			}
		}
		out = append(out, f)

	default: // VerdictUnknown
		b := v.Blockers[0]
		f := diag.Finding{
			Analyzer: "race",
			Pos:      pos,
			Severity: diag.Info,
			Message:  fmt.Sprintf("parallelism of the loop over %s is unknown: %s", v.IV, b.Reason),
			Detail: map[string]string{
				"verdict":  "unknown",
				"iv":       v.IV,
				"blockers": fmt.Sprintf("%d", len(v.Blockers)),
			},
		}
		// The leading blocker's why-certificate, machine-readable: the
		// failed comparison, the facts that were in scope, and the one
		// missing fact that would settle it.
		if b.Slug != "" {
			f.Detail["blocker.slug"] = b.Slug
		}
		if b.Comparison != "" {
			f.Detail["why.comparison"] = b.Comparison
		}
		if b.Facts != "" {
			f.Detail["why.facts"] = b.Facts
		}
		if b.Missing != "" {
			f.Detail["why.missing"] = b.Missing
		}
		for i, bl := range v.Blockers {
			if i >= 4 {
				break
			}
			rp := bl.Pos
			if !rp.IsValid() {
				rp = pos
			}
			f.Related = append(f.Related, diag.Related{Pos: rp, Message: bl.Reason})
		}
		out = append(out, f)
	}
	diag.Sort(out)
	return out
}

func accessText(text string, store bool) string {
	if store {
		return "store " + text
	}
	return "load " + text
}

// evidenceSummary folds per-pair evidence into one bounded detail string.
func evidenceSummary(evs []PairEvidence) string {
	var parts []string
	for i, e := range evs {
		if i >= 6 {
			parts = append(parts, fmt.Sprintf("(+%d more)", len(evs)-i))
			break
		}
		parts = append(parts, fmt.Sprintf("%s vs %s: %s", e.FromText, e.ToText, e.Reason))
	}
	return strings.Join(parts, "; ")
}

// CertifyLoop runs the static side of the certification for one analyzed
// loop. The dynamic bridge (witness replay, permutation check) is separate
// so tests can exercise both halves independently.
func CertifyLoop(c *Context) *Verdict {
	g := c.Loop.Graph()
	v := &Verdict{IV: g.IV}

	// A fuel-exhausted solve degraded its facts to the claim-nothing value:
	// nothing downstream of it (the dependence graph included) is evidence
	// any more, so the loop is unknown with the budget as the blocker. This
	// must come before the carried-edge count so a degraded δ-reaching
	// solution cannot masquerade as a parallel loop.
	if name, res := fuelExhaustedResult(c); res != nil {
		v.Class = VerdictUnknown
		v.Blockers = []Blocker{{
			Pos:  c.Loop.Loop.Pos(),
			Slug: "fuel-exhausted",
			Reason: fmt.Sprintf("the solver's fuel budget (%d) was exhausted on problem %s — data flow facts degraded to claim nothing",
				res.FuelBudget, name),
			Comparison: fmt.Sprintf("fixed point of problem %s within %d solver steps", name, res.FuelBudget),
			Facts:      "none (solve degraded before facts stabilized)",
			Missing:    "a larger fuel budget (-fuel)",
		}}
		return v
	}

	// The dependence graph's carried edges, for cross-checking the verdict
	// against the paper's §4.3 machinery. Edges whose distance cannot fit in
	// the trip count are dropped: the dependence graph has no trip-count
	// feasibility pruning, and the certifier correctly classifies a loop as
	// parallel when every candidate collision lies beyond the last iteration.
	if res := c.result("delta-reaching-refs"); res != nil {
		for _, e := range depend.Build(g, res, maxBlockingDist).Carried() {
			if g.HasUB && e.Distance+1 > g.UBConst {
				continue
			}
			v.CarriedDeps++
		}
	}

	// Structural blockers.
	blockers := structuralBlockers(c)

	// The loop's range facts and, when the bound is symbolic, its bound
	// polynomial — both feed the facts-assisted cases of resolvePair.
	facts := c.Facts()
	var ubPoly poly.Poly
	hasUBPoly := false
	if !g.HasUB && g.UB != nil {
		if p, err := sema.ExprToPoly(g.UB); err == nil {
			ubPoly, hasUBPoly = p, true
		}
	}

	// Pairwise exact resolution over the loop's own affine references.
	exit := exitNode(g)
	var racy []*Witness
	var refs []*ir.Ref
	for _, r := range g.Refs {
		if !r.FromInner && r.Affine {
			refs = append(refs, r)
		}
	}
	for i, r1 := range refs {
		for _, r2 := range refs[i:] {
			if r1.Array != r2.Array || (r1.Kind != ir.Def && r2.Kind != ir.Def) {
				continue
			}
			o := resolvePair(r1, r2, g, facts, ubPoly, hasUBPoly)
			switch o.kind {
			case pairNone, pairIndependent:
				v.Evidence = append(v.Evidence, PairEvidence{
					FromText: refText(r1), ToText: refText(r2), Reason: o.reason,
				})
			case pairConflict:
				if exit != nil && g.Dominates(r1.Node, exit) && g.Dominates(r2.Node, exit) {
					racy = append(racy, o.witness)
				} else {
					blockers = append(blockers, Blocker{
						Pos:  r1.Expr.Pos(),
						Slug: "guarded-conflict",
						Reason: fmt.Sprintf("potential race between %s and %s at distance %d is guarded by a branch — not provable either way",
							refText(r1), refText(r2), o.witness.Distance),
						Comparison: fmt.Sprintf("%s and %s collide at distance %d only when the guard holds",
							refText(r1), refText(r2), o.witness.Distance),
						Missing: "guard conditions are not modeled as constraints on the collision",
					})
				}
			case pairUnknown:
				b := o.blocker
				if !b.Pos.IsValid() {
					b.Pos = r1.Expr.Pos()
				}
				blockers = append(blockers, b)
			}
		}
	}

	// Pairs involving a summarized inner loop, which the pairwise solver
	// above skips (their subscripts range over inner induction variables).
	nestEv, nestRacy, nestBlockers := certifyNest(c, g)
	v.Evidence = append(v.Evidence, nestEv...)
	racy = append(racy, nestRacy...)
	blockers = append(blockers, nestBlockers...)

	// Every certificate records the facts that were in scope; fill the ones
	// the resolvers left empty, then collapse duplicates (distinct pairs
	// often fail on the same construct at the same position).
	factsDesc := facts.Describe()
	for i := range blockers {
		if blockers[i].Facts == "" {
			blockers[i].Facts = factsDesc
		}
	}
	blockers = dedupeBlockers(blockers)

	switch {
	case len(racy) > 0:
		sort.Slice(racy, func(i, j int) bool { return witnessLess(racy[i], racy[j]) })
		v.Class = VerdictRacy
		v.Witness = racy[0]
	case len(blockers) > 0:
		sort.Slice(blockers, func(i, j int) bool {
			a, b := blockers[i], blockers[j]
			if a.Pos != b.Pos {
				return a.Pos.Line < b.Pos.Line || (a.Pos.Line == b.Pos.Line && a.Pos.Col < b.Pos.Col)
			}
			return a.Reason < b.Reason
		})
		v.Class = VerdictUnknown
		v.Blockers = blockers
	default:
		v.Class = VerdictParallel
		sort.Slice(v.Evidence, func(i, j int) bool {
			a, b := v.Evidence[i], v.Evidence[j]
			if a.FromText != b.FromText {
				return a.FromText < b.FromText
			}
			if a.ToText != b.ToText {
				return a.ToText < b.ToText
			}
			return a.Reason < b.Reason
		})
	}
	return v
}

// structuralBlockers collects the constructs that keep a loop out of the
// provably-parallel class regardless of subscript arithmetic. Summarized
// inner loops are NOT blockers by themselves any more — certifyNest
// resolves their reference pairs exactly and reports its own certificates
// when it cannot.
func structuralBlockers(c *Context) []Blocker {
	var out []Blocker
	g := c.Loop.Graph()
	for _, r := range g.Refs {
		if !r.FromInner && !r.Affine {
			out = append(out, Blocker{
				Pos:        r.Expr.Pos(),
				Slug:       "nonaffine-subscript",
				Reason:     fmt.Sprintf("subscript of %s is not affine in %s", refText(r), g.IV),
				Comparison: fmt.Sprintf("footprint of %s across iterations of %s", refText(r), g.IV),
				Missing:    fmt.Sprintf("a subscript of the form a·%s + b", g.IV),
			})
		}
	}
	// Scalar assignments carry values between iterations through a single
	// memory cell the array framework does not model.
	ast.Inspect(c.Loop.Loop.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.Assign); ok {
			if id, ok := as.LHS.(*ast.Ident); ok {
				out = append(out, Blocker{
					Pos:        id.Pos(),
					Slug:       "scalar-carried",
					Reason:     fmt.Sprintf("scalar assignment to %s may carry a dependence between iterations", id.Name),
					Comparison: fmt.Sprintf("cross-iteration flow through the single cell %s", id.Name),
					Missing:    fmt.Sprintf("a privatization or reduction proof for %s", id.Name),
				})
			}
		}
		return true
	})
	return out
}

// dedupeBlockers collapses blockers sharing position and reason — distinct
// reference pairs frequently trip over the same construct — keeping the
// first occurrence (which carries the same certificate by construction).
func dedupeBlockers(bs []Blocker) []Blocker {
	type key struct {
		pos    token.Pos
		reason string
	}
	seen := map[key]bool{}
	out := bs[:0]
	for _, b := range bs {
		k := key{b.Pos, b.Reason}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, b)
	}
	return out
}

func refText(r *ir.Ref) string { return ast.ExprString(r.Expr) }

func exitNode(g *ir.Graph) *ir.Node {
	for _, nd := range g.Nodes {
		if nd.Kind == ir.KindExit {
			return nd
		}
	}
	return nil
}

// witnessLess orders witnesses deterministically: smallest distance first,
// then earliest source positions.
func witnessLess(a, b *Witness) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	if a.FromPos != b.FromPos {
		return a.FromPos.Line < b.FromPos.Line || (a.FromPos.Line == b.FromPos.Line && a.FromPos.Col < b.FromPos.Col)
	}
	if a.ToPos != b.ToPos {
		return a.ToPos.Line < b.ToPos.Line || (a.ToPos.Line == b.ToPos.Line && a.ToPos.Col < b.ToPos.Col)
	}
	return a.Kind < b.Kind
}

// resolvePair decides whether two references can touch the same element in
// two different iterations of the loop, exactly where possible. The loop's
// range facts settle symbolic comparisons the constant arithmetic cannot:
// a symbolic collision distance proved to reach past the trip count, a
// symbolic element difference proved nonzero, a stride proved larger than
// a constant offset. Every statically undecidable pair yields a blocker
// carrying the exact comparison that failed.
func resolvePair(r1, r2 *ir.Ref, g *ir.Graph, facts *rangefacts.Facts, ubPoly poly.Poly, hasUBPoly bool) pairOutcome {
	hasUB, ub, iv := g.HasUB, g.UBConst, g.IV
	// tripAtMost reports whether the trip count provably fits within k
	// iterations — from the constant bound, or from the facts when the
	// bound is a symbolic expression with a known upper bound.
	tripAtMost := func(k int64) bool {
		if hasUB {
			return ub <= k
		}
		if hasUBPoly {
			if hi, ok := facts.UpperBound(ubPoly); ok {
				return hi <= k
			}
		}
		return false
	}
	// beyondTrip reports whether a collision at (signed) distance delta
	// lies past the last iteration.
	beyondTrip := func(delta int64) bool {
		if hasUB {
			return abs64(delta)+1 > ub
		}
		return tripAtMost(abs64(delta))
	}
	constDelta := func(delta int64) pairOutcome {
		if delta == 0 {
			return pairOutcome{kind: pairIndependent, reason: "collide only within one iteration (δ = 0)"}
		}
		if beyondTrip(delta) {
			return pairOutcome{kind: pairNone,
				reason: fmt.Sprintf("collision distance %d exceeds the trip count", abs64(delta))}
		}
		early, late := r1, r2
		if delta < 0 {
			early, late, delta = r2, r1, -delta
		}
		return conflict(early, late, 1, 1+delta, iv)
	}

	a1, b1, ok1 := r1.Form.ConstCoeffs()
	a2, b2, ok2 := r2.Form.ConstCoeffs()
	switch {
	case ok1 && ok2 && a1 == a2 && a1 == 0:
		if b1 != b2 {
			return pairOutcome{kind: pairNone, reason: "distinct constant elements"}
		}
		if tripAtMost(1) {
			return pairOutcome{kind: pairNone, reason: "single-iteration loop"}
		}
		return conflict(r1, r2, 1, 2, iv)
	case ok1 && ok2 && a1 == a2:
		diff := b1 - b2
		if diff%a1 != 0 {
			return pairOutcome{kind: pairNone,
				reason: fmt.Sprintf("offset %d is not divisible by stride %d", diff, a1)}
		}
		return constDelta(diff / a1)
	case ok1 && ok2: // different constant strides
		return resolveDifferentStrides(r1, r2, a1, b1, a2, b2, hasUB, ub, iv)
	case r1.Form.A.Equal(r2.Form.A) && r1.Form.A.IsZero():
		// Both subscripts are invariant in iv (common for the innermost loop
		// of a nest, where the subscript ranges over the outer variables):
		// they collide across iterations exactly when the symbolic elements
		// coincide.
		diff := r1.Form.B.Sub(r2.Form.B)
		if diff.IsZero() {
			if tripAtMost(1) {
				return pairOutcome{kind: pairNone, reason: "single-iteration loop"}
			}
			return conflict(r1, r2, 1, 2, iv)
		}
		if facts.ProveNonZero(diff) {
			return pairOutcome{kind: pairNone,
				reason: fmt.Sprintf("distinct elements: %s ≠ 0 by the loop's range facts", diff)}
		}
		return pairOutcome{kind: pairUnknown, blocker: Blocker{
			Slug: "symbolic-distance",
			Reason: fmt.Sprintf("whether %s and %s name the same element depends on %s",
				refText(r1), refText(r2), diff),
			Comparison: fmt.Sprintf("%s = 0?", diff),
			Missing:    fmt.Sprintf("a fact excluding 0 for %s", diff),
		}}
	case r1.Form.A.Equal(r2.Form.A):
		// Symbolic but equal linear parts: the collision distance is
		// (b1−b2)/a when that quotient is exact.
		diff := r1.Form.B.Sub(r2.Form.B)
		if q, ok := diff.DivExact(r1.Form.A); ok {
			if delta, isConst := q.IsConst(); isConst {
				return constDelta(delta)
			}
			// Symbolic distance. The facts may pin it to a constant, or
			// prove it reaches past the trip count in either direction
			// (distance ≥ trip ⟹ the colliding iteration pair does not fit).
			lo, okLo := facts.LowerBound(q)
			hi, okHi := facts.UpperBound(q)
			if okLo && okHi && lo == hi {
				return constDelta(lo)
			}
			// A collision at distance δ pairs iterations (i, i+|δ|), which
			// fits a trip count of ub only when |δ| < ub: a proven one-sided
			// bound past that excludes every pair.
			if hasUB && ((okLo && lo >= ub) || (okHi && hi <= -ub)) {
				return pairOutcome{kind: pairNone,
					reason: fmt.Sprintf("collision distance %s provably reaches past the trip count %d", q, ub)}
			}
			if hasUBPoly && (facts.ProveGE(q, ubPoly) || facts.ProveGE(q.Neg(), ubPoly)) {
				return pairOutcome{kind: pairNone,
					reason: fmt.Sprintf("collision distance %s provably reaches past the trip count %s", q, ubPoly)}
			}
			return pairOutcome{kind: pairUnknown, blocker: Blocker{
				Slug: "symbolic-distance",
				Reason: fmt.Sprintf("collision distance of %s and %s is symbolic (%s)",
					refText(r1), refText(r2), q),
				Comparison: fmt.Sprintf("δ = %s with 1 ≤ |δ| < trip count?", q),
				Missing:    fmt.Sprintf("a constant value for %s, or a proof it reaches the trip count", q),
			}}
		}
		if diffC, isConst := diff.IsConst(); isConst {
			// a·δ = diffC with a symbolic: impossible for δ ≠ 0 once |a| is
			// proved to exceed |diffC|.
			if diffC != 0 && (facts.ProveGT(r1.Form.A, poly.Const(abs64(diffC))) ||
				facts.ProveGT(r1.Form.A.Neg(), poly.Const(abs64(diffC)))) {
				return pairOutcome{kind: pairNone,
					reason: fmt.Sprintf("stride magnitude |%s| provably exceeds the offset %d", r1.Form.A, abs64(diffC))}
			}
			return pairOutcome{kind: pairUnknown, blocker: Blocker{
				Slug: "symbolic-stride",
				Reason: fmt.Sprintf("collision of %s and %s depends on the symbolic stride (%s)",
					refText(r1), refText(r2), r1.Form.A),
				Comparison: fmt.Sprintf("%s·δ = %d for some integer δ ≠ 0?", r1.Form.A, diffC),
				Missing:    fmt.Sprintf("a fact proving |%s| > %d, or a constant value for it", r1.Form.A, abs64(diffC)),
			}}
		}
		return pairOutcome{kind: pairUnknown, blocker: Blocker{
			Slug: "symbolic-distance",
			Reason: fmt.Sprintf("collision distance of %s and %s is symbolic (%s)",
				refText(r1), refText(r2), diff),
			Comparison: fmt.Sprintf("%s·δ = %s for some integer δ ≠ 0?", r1.Form.A, diff),
			Missing:    fmt.Sprintf("bounds resolving %s against %s", diff, r1.Form.A),
		}}
	default:
		return pairOutcome{kind: pairUnknown, blocker: Blocker{
			Slug:   "symbolic-coeffs",
			Reason: fmt.Sprintf("subscripts of %s and %s have symbolic coefficients", refText(r1), refText(r2)),
			Comparison: fmt.Sprintf("(%s)·i + %s = (%s)·i' + %s?",
				r1.Form.A, r1.Form.B, r2.Form.A, r2.Form.B),
			Missing: "constant or matching strides",
		}}
	}
}

// resolveDifferentStrides searches for the smallest iteration distance at
// which a1·i + b1 and a2·j + b2 coincide with i ≠ j, both in range.
func resolveDifferentStrides(r1, r2 *ir.Ref, a1, b1, a2, b2 int64, hasUB bool, ub int64, iv string) pairOutcome {
	da := a1 - a2
	bound := int64(differentStrideScan)
	if hasUB {
		bound = ub - 1
	}
	for d := int64(1); d <= bound; d++ {
		// Direction A: r1 runs d iterations before r2 (i2 − i1 = d).
		if num := a1*d + b2 - b1; num%da == 0 {
			i2 := num / da
			i1 := i2 - d
			if i1 >= 1 && (!hasUB || i2 <= ub) {
				return conflict(r1, r2, i1, i2, iv)
			}
		}
		// Direction B: r2 runs d iterations before r1 (i1 − i2 = d).
		if num := b2 - b1 - a2*d; num%da == 0 {
			i1 := num / da
			i2 := i1 - d
			if i2 >= 1 && (!hasUB || i1 <= ub) {
				return conflict(r2, r1, i2, i1, iv)
			}
		}
	}
	if hasUB {
		return pairOutcome{kind: pairNone,
			reason: fmt.Sprintf("strides %d and %d admit no colliding iteration pair within the trip count %d", a1, a2, ub)}
	}
	// Symbolic bound: the scan is a heuristic. When neither direction's
	// Diophantine equation (da·i − a·d = b2−b1) has integer solutions at
	// all, the pair provably never collides; otherwise stay conservative.
	diff := b2 - b1
	if diff%gcd(abs64(da), abs64(a1)) != 0 && diff%gcd(abs64(da), abs64(a2)) != 0 {
		return pairOutcome{kind: pairNone,
			reason: fmt.Sprintf("strides %d and %d never produce the same element (no integer solution)", a1, a2)}
	}
	return pairOutcome{kind: pairUnknown, blocker: Blocker{
		Slug: "symbolic-bound-scan",
		Reason: fmt.Sprintf("no collision of %s and %s within %d iterations, but the loop bound is symbolic",
			refText(r1), refText(r2), differentStrideScan),
		Comparison: fmt.Sprintf("%d·i + %d = %d·i' + %d for some i' − i > %d?", a1, b1, a2, b2, differentStrideScan),
		Missing:    "a constant trip count (the scan is exhaustive only under one)",
	}}
}

// conflict builds the pairConflict outcome with a fully-populated witness:
// early executes at iteration iterEarly, late at iterLate, touching the
// same element.
func conflict(early, late *ir.Ref, iterEarly, iterLate int64, iv string) pairOutcome {
	w := &Witness{
		IV:        iv,
		IterEarly: iterEarly,
		IterLate:  iterLate,
		Distance:  iterLate - iterEarly,
		Kind:      dependenceKind(early, late),
		Array:     early.Array,
		FromText:  refText(early),
		ToText:    refText(late),
		FromStore: early.Kind == ir.Def,
		ToStore:   late.Kind == ir.Def,
		FromPos:   early.Expr.Pos(),
		ToPos:     late.Expr.Pos(),
	}
	if cell, ok := evalCell(early.Expr, iv, iterEarly); ok {
		w.Cell = cell
		w.HasCell = true
	}
	return pairOutcome{kind: pairConflict, witness: w}
}

func dependenceKind(early, late *ir.Ref) string {
	switch {
	case early.Kind == ir.Def && late.Kind == ir.Def:
		return "output"
	case early.Kind == ir.Def:
		return "flow"
	default:
		return "anti"
	}
}

// evalCell evaluates a reference's subscript tuple at a concrete iteration
// (iv = iter), succeeding only when every subscript is constant under that
// single binding.
func evalCell(ref *ast.ArrayRef, iv string, iter int64) ([]int64, bool) {
	env := map[string]int64{iv: iter}
	out := make([]int64, len(ref.Subs))
	for k, sub := range ref.Subs {
		v, ok := evalConstExpr(sub, env)
		if !ok {
			return nil, false
		}
		out[k] = v
	}
	return out, true
}

// evalConstExpr evaluates an expression under env, failing on any symbol
// outside env, array reference, or division/modulo edge case.
func evalConstExpr(e ast.Expr, env map[string]int64) (int64, bool) {
	switch ex := e.(type) {
	case *ast.IntLit:
		return ex.Value, true
	case *ast.Ident:
		v, ok := env[ex.Name]
		return v, ok
	case *ast.Unary:
		v, ok := evalConstExpr(ex.X, env)
		if !ok {
			return 0, false
		}
		switch ex.Op {
		case token.MINUS:
			return -v, true
		case token.NOT:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case *ast.Binary:
		l, ok := evalConstExpr(ex.L, env)
		if !ok {
			return 0, false
		}
		r, ok := evalConstExpr(ex.R, env)
		if !ok {
			return 0, false
		}
		switch ex.Op {
		case token.PLUS:
			return l + r, true
		case token.MINUS:
			return l - r, true
		case token.STAR:
			return l * r, true
		case token.SLASH:
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case token.MOD:
			if r == 0 {
				return 0, false
			}
			return l % r, true
		}
		return 0, false
	}
	return 0, false
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}
