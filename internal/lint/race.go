package lint

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/ir"
	"repro/internal/poly"
	"repro/internal/problems"
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
	b := make([]byte, 0, len(w.Array)+2+4*len(w.Cell))
	b = append(b, w.Array...)
	b = append(b, '[')
	for i, c := range w.Cell {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendInt(b, c, 10)
	}
	return string(append(b, ']'))
}

// Blocker names one construct preventing certification. Beyond the prose
// reason, a blocker is a structured why-certificate: the taxonomy slug,
// the exact comparison the certifier could not resolve, the range facts
// that were available when it tried, and the single missing fact that
// would settle it. Its texts are rendered on first use: a verdict reports
// the reasons of at most four blockers and the certificate of one.
type Blocker struct {
	Pos token.Pos
	// Slug is the stable taxonomy identifier (one of BlockerSlugs).
	Slug string
	// Facts lists the range facts in scope when the comparison failed. A
	// verdict fills it in for its lead blocker, the one it reports.
	Facts string

	reason lazyText
	// cert renders the failed comparison (e.g. "n·δ = j − j' + 6") and the
	// missing fact.
	cert func() (comparison, missing string)
}

// Reason is the blocker's prose reason.
func (b *Blocker) Reason() string { return b.reason.String() }

// Certificate renders the failed comparison and the single missing fact
// that would resolve it.
func (b *Blocker) Certificate() (comparison, missing string) {
	if b.cert == nil {
		return "", ""
	}
	return b.cert()
}

// lazyText is text rendered only when something reads it: fixed text, or
// a render function whose result is kept.
type lazyText struct {
	s      string
	render func() string
}

func fixedText(s string) lazyText        { return lazyText{s: s} }
func deferText(f func() string) lazyText { return lazyText{render: f} }
func (t *lazyText) String() string {
	if t.render != nil {
		t.s, t.render = t.render(), nil
	}
	return t.s
}

// itoa renders n in decimal.
func itoa(n int64) string { return strconv.FormatInt(n, 10) }

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
// The reason is rendered on first use: a verdict reports at most six pairs.
type PairEvidence struct {
	FromText, ToText string
	reason           lazyText
}

// Reason states why the pair carries no dependence.
func (e *PairEvidence) Reason() string { return e.reason.String() }

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
	// (internal/depend) within maxBlockingDist, for cross-checking. Racy
	// and parallel verdicts, the two that report it, fill it in.
	CarriedDeps int
}

// pairOutcome is the result of resolving one reference pair.
type pairOutcome struct {
	kind     pairKind
	conflict collision // kind == pairConflict
	reason   lazyText  // evidence (pairNone/pairIndependent)
	blocker  Blocker   // why-certificate (pairUnknown)
}

// collision is a conflicting pair before it becomes a witness: the early
// reference executes at iteration iterEarly, the late one at iterLate, and
// both touch one element. A loop can have many; only the least under
// collisionLess is built into the verdict's Witness.
type collision struct {
	early, late         *ir.Ref
	iterEarly, iterLate int64
	// env binds the inner induction variables of a summarized-loop pair
	// (the late side's primed, see nestPrime), and earlyPrimed tells which
	// side is early; nil for a pair of plain body references, whose cell
	// is evaluated at iterEarly alone.
	env         map[string]int64
	earlyPrimed bool
}

func (c *collision) distance() int64 { return c.iterLate - c.iterEarly }

// witness builds the Witness of the collision in the loop over iv.
func (c *collision) witness(iv string, refs *loopRefs) *Witness {
	early, late := c.early, c.late
	w := &Witness{
		IV:        iv,
		IterEarly: c.iterEarly,
		IterLate:  c.iterLate,
		Distance:  c.distance(),
		Kind:      dependenceKind(early, late),
		Array:     early.Array,
		FromText:  refs.text(early),
		ToText:    refs.text(late),
		FromStore: early.Kind == ir.Def,
		ToStore:   late.Kind == ir.Def,
		FromPos:   refs.pos(early),
		ToPos:     refs.pos(late),
	}
	if c.env == nil {
		w.Cell, w.HasCell = evalCell(early.Expr, iv, c.iterEarly)
		return w
	}
	earlyEnv, lateEnv := splitNestEnv(c.env)
	if c.earlyPrimed {
		earlyEnv = lateEnv
	}
	earlyEnv[iv] = c.iterEarly
	w.Cell, w.HasCell = nestCell(early.Expr, earlyEnv)
	return w
}

// leastCollision keeps the least of the collisions offered to it, ordered
// by the positions refs reads.
type leastCollision struct {
	refs *loopRefs
	best collision
	any  bool
}

func (l *leastCollision) offer(c collision) {
	if !l.any || collisionLess(&c, &l.best, l.refs) {
		l.best, l.any = c, true
	}
}

// evidence and unknown build the non-conflict outcomes.
func evidence(kind pairKind, reason lazyText) pairOutcome {
	return pairOutcome{kind: kind, reason: reason}
}

func unknown(b Blocker) pairOutcome { return pairOutcome{kind: pairUnknown, blocker: b} }

// loopRefs names the references of one loop's graph. Evidence, blockers
// and witnesses name the same references pair after pair, so each text is
// rendered at most once, from the graph. Positions come from the loop's
// own source: the graph may have been built from another loop of the same
// content.
type loopRefs struct {
	la    *driver.LoopAnalysis
	texts []string // by ir.Ref.ID
}

func newLoopRefs(la *driver.LoopAnalysis, g *ir.Graph) *loopRefs {
	return &loopRefs{la: la, texts: make([]string, len(g.Refs)+1)}
}

// text renders r.
func (t *loopRefs) text(r *ir.Ref) string {
	if r.ID <= 0 || r.ID >= len(t.texts) {
		return ast.ExprString(r.Expr)
	}
	if t.texts[r.ID] == "" {
		t.texts[r.ID] = ast.ExprString(r.Expr)
	}
	return t.texts[r.ID]
}

// expr returns r as it occurs in the loop's own source.
func (t *loopRefs) expr(r *ir.Ref) *ast.ArrayRef { return t.la.RefExpr(r) }

// pos returns r's position in the loop's own source.
func (t *loopRefs) pos(r *ir.Ref) token.Pos { return t.la.RefExpr(r).Pos() }

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
		from, to := accessText(w.FromText, w.FromStore), accessText(w.ToText, w.ToStore)
		early, late, cell := itoa(w.IterEarly), itoa(w.IterLate), w.CellString()
		f := diag.Finding{
			Analyzer: "race",
			Pos:      pos,
			Severity: diag.Warning,
			Message: "loop over " + v.IV + " is provably racy: " + from + " (iteration " + early + ") and " +
				to + " (iteration " + late + ") touch " + cell + " — " + w.Kind + " dependence at distance " + itoa(w.Distance),
			Related: []diag.Related{
				{Pos: w.FromPos, Message: from + " at iteration " + early},
				{Pos: w.ToPos, Message: to + " at iteration " + late},
			},
			Detail: map[string]string{
				"verdict":   "racy",
				"iv":        v.IV,
				"iterEarly": early,
				"iterLate":  late,
				"distance":  itoa(w.Distance),
				"kind":      w.Kind,
				"cell":      cell,
				"carried":   strconv.Itoa(v.CarriedDeps),
			},
		}
		if job != nil {
			if err := job.err; err != nil {
				out = append(out, diag.Finding{
					Analyzer: "race",
					Pos:      pos,
					Severity: diag.Error,
					Message: "certification bridge failure: racy witness for the loop over " + v.IV +
						" did not replay on the interpreter: " + err.Error(),
					Detail: map[string]string{"verdict": "racy", "replay": "failed"},
				})
				f.Detail["replay"] = "failed"
			} else {
				f.Detail["replay"] = "confirmed"
			}
		}
		out = append(out, f)

	case VerdictParallel:
		pairs := strconv.Itoa(len(v.Evidence))
		f := diag.Finding{
			Analyzer: "race",
			Pos:      pos,
			Severity: diag.Info,
			Message: "loop over " + v.IV + " is provably parallel: no loop-carried dependence across " +
				pairs + " conflicting reference pair(s)",
			Detail: map[string]string{
				"verdict": "parallel",
				"iv":      v.IV,
				"pairs":   pairs,
			},
		}
		if ev := evidenceSummary(v.Evidence); ev != "" {
			f.Detail["evidence"] = ev
		}
		if v.CarriedDeps > 0 {
			// The dependence graph disagrees with the certification — one of
			// the two is wrong; surface it loudly instead of guessing.
			carried := strconv.Itoa(v.CarriedDeps)
			out = append(out, diag.Finding{
				Analyzer: "race",
				Pos:      pos,
				Severity: diag.Error,
				Message: "certification inconsistency: loop over " + v.IV +
					" certified parallel but the dependence graph carries " + carried + " edge(s)",
				Detail: map[string]string{"verdict": "parallel", "carried": carried},
			})
		}
		if job != nil {
			if err := job.err; err != nil {
				out = append(out, diag.Finding{
					Analyzer: "race",
					Pos:      pos,
					Severity: diag.Error,
					Message: "certification bridge failure: loop over " + v.IV +
						" certified parallel but a shuffled iteration order diverged: " + err.Error(),
					Detail: map[string]string{"verdict": "parallel", "permutation": "diverged"},
				})
				f.Detail["permutation"] = "diverged"
			} else {
				f.Detail["permutation"] = "verified"
			}
		}
		out = append(out, f)

	default: // VerdictUnknown
		b := &v.Blockers[0]
		f := diag.Finding{
			Analyzer: "race",
			Pos:      pos,
			Severity: diag.Info,
			Message:  "parallelism of the loop over " + v.IV + " is unknown: " + b.Reason(),
			Detail: map[string]string{
				"verdict":  "unknown",
				"iv":       v.IV,
				"blockers": strconv.Itoa(len(v.Blockers)),
			},
		}
		// The leading blocker's why-certificate, machine-readable: the
		// failed comparison, the facts that were in scope, and the one
		// missing fact that would settle it.
		comparison, missing := b.Certificate()
		if b.Slug != "" {
			f.Detail["blocker.slug"] = b.Slug
		}
		if comparison != "" {
			f.Detail["why.comparison"] = comparison
		}
		if b.Facts != "" {
			f.Detail["why.facts"] = b.Facts
		}
		if missing != "" {
			f.Detail["why.missing"] = missing
		}
		for i := range v.Blockers {
			if i >= 4 {
				break
			}
			bl := &v.Blockers[i]
			rp := bl.Pos
			if !rp.IsValid() {
				rp = pos
			}
			f.Related = append(f.Related, diag.Related{Pos: rp, Message: bl.Reason()})
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

// evidenceSummary folds per-pair evidence into one bounded detail string:
// the first six pairs, then a count of the rest.
func evidenceSummary(evs []PairEvidence) string {
	var b strings.Builder
	for i := range evs {
		if i > 0 {
			b.WriteString("; ")
		}
		if i >= 6 {
			b.WriteString("(+")
			b.WriteString(strconv.Itoa(len(evs) - i))
			b.WriteString(" more)")
			break
		}
		e := &evs[i]
		b.WriteString(e.FromText)
		b.WriteString(" vs ")
		b.WriteString(e.ToText)
		b.WriteString(": ")
		b.WriteString(e.Reason())
	}
	return b.String()
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
		budget := itoa(res.FuelBudget)
		v.Class = VerdictUnknown
		v.Blockers = []Blocker{{
			Pos:  c.Loop.Loop.Pos(),
			Slug: "fuel-exhausted",
			reason: fixedText("the solver's fuel budget (" + budget + ") was exhausted on problem " + name +
				" — data flow facts degraded to claim nothing"),
			cert: func() (string, string) {
				return "fixed point of problem " + name + " within " + budget + " solver steps", "a larger fuel budget (-fuel)"
			},
			Facts: "none (solve degraded before facts stabilized)",
		}}
		return v
	}

	// Structural blockers.
	refs := newLoopRefs(c.Loop, g)
	blockers := structuralBlockers(c, refs)

	// The loop's range facts and, when the bound is symbolic, its bound
	// polynomial and the facts' upper bound on it — all feed the
	// facts-assisted cases of resolvePair.
	facts := c.Facts()
	var trip symbolicTrip
	if !g.HasUB && g.UB != nil {
		if p, err := sema.ExprToPoly(g.UB); err == nil {
			trip.ub, trip.hasUB = p, true
			trip.hi, trip.hasHi = facts.UpperBound(p)
		}
	}

	// Pairwise exact resolution over the loop's own affine references.
	racy := leastCollision{refs: refs}
	var affine []*ir.Ref
	for _, r := range g.Refs {
		if !r.FromInner && r.Affine {
			affine = append(affine, r)
		}
	}
	for i, r1 := range affine {
		for _, r2 := range affine[i:] {
			if r1.Array != r2.Array || (r1.Kind != ir.Def && r2.Kind != ir.Def) {
				continue
			}
			o := resolvePair(r1, r2, g, refs, facts, trip)
			switch o.kind {
			case pairNone, pairIndependent:
				v.Evidence = append(v.Evidence, PairEvidence{
					FromText: refs.text(r1), ToText: refs.text(r2), reason: o.reason,
				})
			case pairConflict:
				if g.Dominates(r1.Node, g.Exit) && g.Dominates(r2.Node, g.Exit) {
					racy.offer(o.conflict)
				} else {
					t1, t2, dist := refs.text(r1), refs.text(r2), o.conflict.distance()
					blockers = append(blockers, Blocker{
						Pos:  refs.pos(r1),
						Slug: "guarded-conflict",
						reason: deferText(func() string {
							return "potential race between " + t1 + " and " + t2 + " at distance " + itoa(dist) +
								" is guarded by a branch — not provable either way"
						}),
						cert: func() (string, string) {
							return t1 + " and " + t2 + " collide at distance " + itoa(dist) + " only when the guard holds",
								"guard conditions are not modeled as constraints on the collision"
						},
					})
				}
			case pairUnknown:
				b := o.blocker
				if !b.Pos.IsValid() {
					b.Pos = refs.pos(r1)
				}
				blockers = append(blockers, b)
			}
		}
	}

	// Pairs involving a summarized inner loop, which the pairwise solver
	// above skips (their subscripts range over inner induction variables).
	nestEv, nestBlockers := certifyNest(c, g, refs, &racy)
	v.Evidence = append(v.Evidence, nestEv...)
	blockers = append(blockers, nestBlockers...)

	switch {
	case racy.any:
		v.Class = VerdictRacy
		v.Witness = racy.best.witness(g.IV, refs)
	case len(blockers) > 0:
		// Order by position, then reason, and collapse duplicates (distinct
		// pairs often fail on the same construct at the same position),
		// keeping the first occurrence. Reasons render only where two
		// blockers share a position.
		sort.SliceStable(blockers, func(i, j int) bool {
			a, b := &blockers[i], &blockers[j]
			if a.Pos != b.Pos {
				return a.Pos.Line < b.Pos.Line || (a.Pos.Line == b.Pos.Line && a.Pos.Col < b.Pos.Col)
			}
			return a.Reason() < b.Reason()
		})
		v.Class = VerdictUnknown
		v.Blockers = dedupeBlockers(blockers)
		// Every certificate records the facts that were in scope; only the
		// lead blocker's are reported.
		if lead := &v.Blockers[0]; lead.Facts == "" {
			lead.Facts = facts.Describe()
		}
	default:
		v.Class = VerdictParallel
		sort.Slice(v.Evidence, func(i, j int) bool {
			a, b := &v.Evidence[i], &v.Evidence[j]
			if a.FromText != b.FromText {
				return a.FromText < b.FromText
			}
			if a.ToText != b.ToText {
				return a.ToText < b.ToText
			}
			return a.Reason() < b.Reason()
		})
	}
	if v.Class != VerdictUnknown {
		// The dependence graph's carried edges, for cross-checking the
		// verdict against the paper's §4.3 machinery.
		if res := c.result("delta-reaching-refs"); res != nil {
			v.CarriedDeps = carriedEdges(g, res)
		}
	}
	return v
}

// carriedEdges counts the loop-carried edges internal/depend's graph of g
// holds within maxBlockingDist, without building the graph: the distinct
// (source node, sink node, distance, kind) tuples at distance ≥ 1 among
// the δ-reaching-references dependences. Edges whose distance cannot fit
// in the trip count are dropped: the dependence graph has no trip-count
// feasibility pruning, and the certifier correctly classifies a loop as
// parallel when every candidate collision lies beyond the last iteration.
func carriedEdges(g *ir.Graph, res *dataflow.Result) int {
	type edge struct {
		from, to int
		distance int64
		kind     string
	}
	var edges []edge
	for _, d := range problems.FindDependences(res, maxBlockingDist) {
		if d.Distance < 1 || (g.HasUB && d.Distance+1 > g.UBConst) {
			continue
		}
		edges = append(edges, edge{d.From.Node.ID, d.To.Node.ID, d.Distance, d.Kind})
	}
	slices.SortFunc(edges, func(a, b edge) int {
		switch {
		case a.from != b.from:
			return a.from - b.from
		case a.to != b.to:
			return a.to - b.to
		case a.distance != b.distance:
			return int(a.distance - b.distance)
		}
		return strings.Compare(a.kind, b.kind)
	})
	return len(slices.Compact(edges))
}

// structuralBlockers collects the constructs that keep a loop out of the
// provably-parallel class regardless of subscript arithmetic. Summarized
// inner loops are NOT blockers by themselves any more — certifyNest
// resolves their reference pairs exactly and reports its own certificates
// when it cannot.
func structuralBlockers(c *Context, refs *loopRefs) []Blocker {
	var out []Blocker
	g := c.Loop.Graph()
	iv := g.IV
	for _, r := range g.Refs {
		if !r.FromInner && !r.Affine {
			t := refs.text(r)
			out = append(out, Blocker{
				Pos:    refs.pos(r),
				Slug:   "nonaffine-subscript",
				reason: fixedText("subscript of " + t + " is not affine in " + iv),
				cert: func() (string, string) {
					return "footprint of " + t + " across iterations of " + iv, "a subscript of the form a·" + iv + " + b"
				},
			})
		}
	}
	// Scalar assignments carry values between iterations through a single
	// memory cell the array framework does not model.
	ast.Inspect(c.Loop.Loop.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.Assign); ok {
			if id, ok := as.LHS.(*ast.Ident); ok {
				name := id.Name
				out = append(out, Blocker{
					Pos:    id.Pos(),
					Slug:   "scalar-carried",
					reason: fixedText("scalar assignment to " + name + " may carry a dependence between iterations"),
					cert: func() (string, string) {
						return "cross-iteration flow through the single cell " + name, "a privatization or reduction proof for " + name
					},
				})
			}
		}
		return true
	})
	return out
}

// dedupeBlockers collapses adjacent blockers sharing position and reason
// in a sorted slice — distinct reference pairs frequently trip over the
// same construct — keeping the first occurrence (which carries the same
// certificate by construction).
func dedupeBlockers(bs []Blocker) []Blocker {
	out := bs[:1]
	for i := 1; i < len(bs); i++ {
		prev := &out[len(out)-1]
		if bs[i].Pos == prev.Pos && bs[i].Reason() == prev.Reason() {
			continue
		}
		out = append(out, bs[i])
	}
	return out
}

// collisionLess orders collisions as their witnesses are ordered:
// smallest distance first, then earliest source positions (as refs reads
// them), then kind.
func collisionLess(a, b *collision, refs *loopRefs) bool {
	if da, db := a.distance(), b.distance(); da != db {
		return da < db
	}
	if ap, bp := refs.pos(a.early), refs.pos(b.early); ap != bp {
		return ap.Line < bp.Line || (ap.Line == bp.Line && ap.Col < bp.Col)
	}
	if ap, bp := refs.pos(a.late), refs.pos(b.late); ap != bp {
		return ap.Line < bp.Line || (ap.Line == bp.Line && ap.Col < bp.Col)
	}
	return dependenceKind(a.early, a.late) < dependenceKind(b.early, b.late)
}

// symbolicTrip is a symbolic loop bound as resolvePair consults it: the
// bound's polynomial and, once per loop, the range facts' upper bound on
// it.
type symbolicTrip struct {
	ub    poly.Poly
	hasUB bool
	hi    int64
	hasHi bool
}

// resolvePair decides whether two references can touch the same element in
// two different iterations of the loop, exactly where possible. The loop's
// range facts settle symbolic comparisons the constant arithmetic cannot:
// a symbolic collision distance proved to reach past the trip count, a
// symbolic element difference proved nonzero, a stride proved larger than
// a constant offset. Every statically undecidable pair yields a blocker
// carrying the exact comparison that failed.
func resolvePair(r1, r2 *ir.Ref, g *ir.Graph, refs *loopRefs, facts *rangefacts.Facts, trip symbolicTrip) pairOutcome {
	hasUB, ub := g.HasUB, g.UBConst
	// tripAtMost reports whether the trip count provably fits within k
	// iterations — from the constant bound, or from the facts when the
	// bound is a symbolic expression with a known upper bound.
	tripAtMost := func(k int64) bool {
		if hasUB {
			return ub <= k
		}
		return trip.hasHi && trip.hi <= k
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
			return evidence(pairIndependent, fixedText("collide only within one iteration (δ = 0)"))
		}
		if beyondTrip(delta) {
			return evidence(pairNone, deferText(func() string {
				return "collision distance " + itoa(abs64(delta)) + " exceeds the trip count"
			}))
		}
		early, late := r1, r2
		if delta < 0 {
			early, late, delta = r2, r1, -delta
		}
		return conflict(early, late, 1, 1+delta)
	}
	// symbolic names the pair for the blockers below.
	pair := func() string { return refs.text(r1) + " and " + refs.text(r2) }

	a1, b1, ok1 := r1.Form.ConstCoeffs()
	a2, b2, ok2 := r2.Form.ConstCoeffs()
	switch {
	case ok1 && ok2 && a1 == a2 && a1 == 0:
		if b1 != b2 {
			return evidence(pairNone, fixedText("distinct constant elements"))
		}
		if tripAtMost(1) {
			return evidence(pairNone, fixedText("single-iteration loop"))
		}
		return conflict(r1, r2, 1, 2)
	case ok1 && ok2 && a1 == a2:
		diff := b1 - b2
		if diff%a1 != 0 {
			return evidence(pairNone, deferText(func() string {
				return "offset " + itoa(diff) + " is not divisible by stride " + itoa(a1)
			}))
		}
		return constDelta(diff / a1)
	case ok1 && ok2: // different constant strides
		return resolveDifferentStrides(r1, r2, a1, b1, a2, b2, hasUB, ub, refs)
	case r1.Form.A.Equal(r2.Form.A) && r1.Form.A.IsZero():
		// Both subscripts are invariant in iv (common for the innermost loop
		// of a nest, where the subscript ranges over the outer variables):
		// they collide across iterations exactly when the symbolic elements
		// coincide.
		diff := r1.Form.B.Sub(r2.Form.B)
		if diff.IsZero() {
			if tripAtMost(1) {
				return evidence(pairNone, fixedText("single-iteration loop"))
			}
			return conflict(r1, r2, 1, 2)
		}
		if facts.ProveNonZero(diff) {
			return evidence(pairNone, deferText(func() string {
				return "distinct elements: " + diff.String() + " ≠ 0 by the loop's range facts"
			}))
		}
		return unknown(Blocker{
			Slug: "symbolic-distance",
			reason: deferText(func() string {
				return "whether " + pair() + " name the same element depends on " + diff.String()
			}),
			cert: func() (string, string) {
				d := diff.String()
				return d + " = 0?", "a fact excluding 0 for " + d
			},
		})
	case r1.Form.A.Equal(r2.Form.A):
		// Symbolic but equal linear parts: the collision distance is
		// (b1−b2)/a when that quotient is exact.
		a := r1.Form.A
		diff := r1.Form.B.Sub(r2.Form.B)
		if q, ok := diff.DivExact(a); ok {
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
				return evidence(pairNone, deferText(func() string {
					return "collision distance " + q.String() + " provably reaches past the trip count " + itoa(ub)
				}))
			}
			if trip.hasUB && (facts.ProveGE(q, trip.ub) || facts.ProveGE(q.Neg(), trip.ub)) {
				return evidence(pairNone, deferText(func() string {
					return "collision distance " + q.String() + " provably reaches past the trip count " + trip.ub.String()
				}))
			}
			return unknown(Blocker{
				Slug: "symbolic-distance",
				reason: deferText(func() string {
					return "collision distance of " + pair() + " is symbolic (" + q.String() + ")"
				}),
				cert: func() (string, string) {
					d := q.String()
					return "δ = " + d + " with 1 ≤ |δ| < trip count?", "a constant value for " + d + ", or a proof it reaches the trip count"
				},
			})
		}
		if diffC, isConst := diff.IsConst(); isConst {
			// a·δ = diffC with a symbolic: impossible for δ ≠ 0 once |a| is
			// proved to exceed |diffC|.
			if diffC != 0 && (facts.ProveGT(a, poly.Const(abs64(diffC))) ||
				facts.ProveGT(a.Neg(), poly.Const(abs64(diffC)))) {
				return evidence(pairNone, deferText(func() string {
					return "stride magnitude |" + a.String() + "| provably exceeds the offset " + itoa(abs64(diffC))
				}))
			}
			return unknown(Blocker{
				Slug: "symbolic-stride",
				reason: deferText(func() string {
					return "collision of " + pair() + " depends on the symbolic stride (" + a.String() + ")"
				}),
				cert: func() (string, string) {
					s := a.String()
					return s + "·δ = " + itoa(diffC) + " for some integer δ ≠ 0?",
						"a fact proving |" + s + "| > " + itoa(abs64(diffC)) + ", or a constant value for it"
				},
			})
		}
		return unknown(Blocker{
			Slug: "symbolic-distance",
			reason: deferText(func() string {
				return "collision distance of " + pair() + " is symbolic (" + diff.String() + ")"
			}),
			cert: func() (string, string) {
				d, s := diff.String(), a.String()
				return s + "·δ = " + d + " for some integer δ ≠ 0?", "bounds resolving " + d + " against " + s
			},
		})
	default:
		return unknown(Blocker{
			Slug: "symbolic-coeffs",
			reason: deferText(func() string {
				return "subscripts of " + pair() + " have symbolic coefficients"
			}),
			cert: func() (string, string) {
				return "(" + r1.Form.A.String() + ")·i + " + r1.Form.B.String() + " = (" + r2.Form.A.String() + ")·i' + " + r2.Form.B.String() + "?",
					"constant or matching strides"
			},
		})
	}
}

// resolveDifferentStrides searches for the smallest iteration distance at
// which a1·i + b1 and a2·j + b2 coincide with i ≠ j, both in range.
func resolveDifferentStrides(r1, r2 *ir.Ref, a1, b1, a2, b2 int64, hasUB bool, ub int64, refs *loopRefs) pairOutcome {
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
				return conflict(r1, r2, i1, i2)
			}
		}
		// Direction B: r2 runs d iterations before r1 (i1 − i2 = d).
		if num := b2 - b1 - a2*d; num%da == 0 {
			i1 := num / da
			i2 := i1 - d
			if i2 >= 1 && (!hasUB || i1 <= ub) {
				return conflict(r2, r1, i2, i1)
			}
		}
	}
	strides := func() string { return "strides " + itoa(a1) + " and " + itoa(a2) }
	if hasUB {
		return evidence(pairNone, deferText(func() string {
			return strides() + " admit no colliding iteration pair within the trip count " + itoa(ub)
		}))
	}
	// Symbolic bound: the scan is a heuristic. When neither direction's
	// Diophantine equation (da·i − a·d = b2−b1) has integer solutions at
	// all, the pair provably never collides; otherwise stay conservative.
	diff := b2 - b1
	if diff%gcd(abs64(da), abs64(a1)) != 0 && diff%gcd(abs64(da), abs64(a2)) != 0 {
		return evidence(pairNone, deferText(func() string {
			return strides() + " never produce the same element (no integer solution)"
		}))
	}
	scan := itoa(differentStrideScan)
	return unknown(Blocker{
		Slug: "symbolic-bound-scan",
		reason: deferText(func() string {
			return "no collision of " + refs.text(r1) + " and " + refs.text(r2) + " within " + scan + " iterations, but the loop bound is symbolic"
		}),
		cert: func() (string, string) {
			return itoa(a1) + "·i + " + itoa(b1) + " = " + itoa(a2) + "·i' + " + itoa(b2) + " for some i' − i > " + scan + "?",
				"a constant trip count (the scan is exhaustive only under one)"
		},
	})
}

// conflict builds the pairConflict outcome: early executes at iteration
// iterEarly, late at iterLate, touching the same element.
func conflict(early, late *ir.Ref, iterEarly, iterLate int64) pairOutcome {
	return pairOutcome{kind: pairConflict, conflict: collision{early: early, late: late, iterEarly: iterEarly, iterLate: iterLate}}
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
	out := make([]int64, len(ref.Subs))
	for k, sub := range ref.Subs {
		v, ok := evalConstExpr(sub, iv, iter)
		if !ok {
			return nil, false
		}
		out[k] = v
	}
	return out, true
}

// evalConstExpr evaluates an expression with iv bound to iter, failing on
// any other symbol, array reference, or division/modulo edge case.
func evalConstExpr(e ast.Expr, iv string, iter int64) (int64, bool) {
	switch ex := e.(type) {
	case *ast.IntLit:
		return ex.Value, true
	case *ast.Ident:
		return iter, ex.Name == iv
	case *ast.Unary:
		v, ok := evalConstExpr(ex.X, iv, iter)
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
		l, ok := evalConstExpr(ex.L, iv, iter)
		if !ok {
			return 0, false
		}
		r, ok := evalConstExpr(ex.R, iv, iter)
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
