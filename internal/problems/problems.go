// Package problems provides the paper's four framework instances as ready
// specifications, plus the result-inspection queries the optimizations are
// built on (paper §3.5 and §4).
package problems

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/ir"
)

// MustReachingDefs is the instance of §3.5: G = definitions, K =
// definitions; a definition d must reach node n with distance δ when the
// latest δ instances of d reach n along all paths.
func MustReachingDefs() *dataflow.Spec {
	return &dataflow.Spec{
		Name: "must-reaching-defs",
		Gen:  func(r *ir.Ref) bool { return r.Kind == ir.Def },
		Kill: func(r *ir.Ref) bool { return r.Kind == ir.Def },
	}
}

// AvailableValues is the δ-available instance of §4.1.1: G = definitions
// and uses, K = definitions. A value is δ-available at p when no
// redefinition occurs along any path of up to δ iterations reaching p.
func AvailableValues() *dataflow.Spec {
	return &dataflow.Spec{
		Name: "delta-available-values",
		Gen:  func(r *ir.Ref) bool { return true },
		Kill: func(r *ir.Ref) bool { return r.Kind == ir.Def },
	}
}

// BusyStores is the δ-busy instance of §4.2.1: a backward must-problem with
// G = textually distinct definition subscripts and K = uses.
func BusyStores() *dataflow.Spec {
	return &dataflow.Spec{
		Name:     "delta-busy-stores",
		Backward: true,
		Gen:      func(r *ir.Ref) bool { return r.Kind == ir.Def },
		Kill:     func(r *ir.Ref) bool { return r.Kind == ir.Use },
	}
}

// ReachingRefs is the δ-reaching instance of §4.3: a may-problem with
// G = definitions and uses, K = definitions, used for dependence detection.
func ReachingRefs() *dataflow.Spec {
	return &dataflow.Spec{
		Name: "delta-reaching-refs",
		May:  true,
		Gen:  func(r *ir.Ref) bool { return true },
		Kill: func(r *ir.Ref) bool { return r.Kind == ir.Def },
	}
}

// StandardSpecs returns fresh instances of the paper's four problems in
// canonical order: must-reaching definitions, δ-available values, δ-busy
// stores, δ-reaching references. Solving them together through
// dataflow.SolveAll shares class discovery, node orderings, and the
// precedes bitsets across all four.
func StandardSpecs() []*dataflow.Spec {
	return []*dataflow.Spec{
		MustReachingDefs(),
		AvailableValues(),
		BusyStores(),
		ReachingRefs(),
	}
}

// Solve runs a spec on a graph with default options.
func Solve(g *ir.Graph, spec *dataflow.Spec) *dataflow.Result {
	return dataflow.Solve(g, spec, nil)
}

// ---------------------------------------------------------------------------
// Queries over results

// Reuse records that reference At reuses the value produced by the class
// From exactly Distance iterations earlier (paper §3.5's
// "guaranteed use of previously computed values" and §4.1.1's reuse
// points).
type Reuse struct {
	At       *ir.Ref
	From     *dataflow.Class
	Distance int64
}

// String renders e.g. "use C[i] reuses C[i+2] @ distance 2".
func (r Reuse) String() string {
	var b strings.Builder
	r.WriteTo(&b)
	return b.String()
}

// WriteTo writes the rendering String returns to b. It formats nothing
// through fmt, so a report renders each reuse line in place.
func (r Reuse) WriteTo(b *strings.Builder) {
	var num [20]byte
	b.WriteString(r.At.Kind.String())
	b.WriteByte(' ')
	ast.WriteExpr(b, r.At.Expr)
	b.WriteString("@n")
	b.Write(strconv.AppendInt(num[:0], int64(r.At.Node.ID), 10))
	b.WriteString(" reuses ")
	r.From.WriteTo(b)
	b.WriteString(" @ distance ")
	b.Write(strconv.AppendInt(num[:0], r.Distance, 10))
}

// FindReuses inspects a must-problem solution (must-reaching definitions or
// δ-available values) and returns, for every use u = X[f(i)] at node n, the
// classes d = X[f(i−δ)] whose instances provably reach n with distance δ
// (pr(d,n) ≤ δ ≤ IN[n,d]). When several classes supply the value, each is
// reported; when several distances qualify for a class the smallest is
// reported (the most recent instance).
func FindReuses(res *dataflow.Result) []Reuse {
	if res.FuelExhausted {
		// The solve degraded to the claim-nothing value; a must-problem
		// solution that claims nothing supplies no reuses, and consumers
		// surface the budget through the lint fuel blocker instead.
		return nil
	}
	var out []Reuse
	for _, u := range res.Graph.Refs {
		if u.Kind != ir.Use || !u.Affine || u.FromInner {
			continue
		}
		out = appendReusesAt(out, res, u)
	}
	return out
}

// appendReusesAt appends the reuse records for a single use to out.
func appendReusesAt(out []Reuse, res *dataflow.Result, u *ir.Ref) []Reuse {
	for _, c := range res.ClassesOf(u.Array) {
		// Skip self-class at distance 0: a reference trivially "reuses"
		// itself; meaningful reuse needs a distinct site or positive
		// distance, which the distance check below enforces via pr.
		d, ok := classDistance(c, u)
		if !ok {
			continue
		}
		pr := res.Pr(c, u.Node)
		if d < pr {
			continue
		}
		if d == 0 {
			// A distance-0 reuse needs a generator that executes *before u
			// on every path of the current iteration*. Some-path precedence
			// is not enough: when u itself belongs to the class, its own
			// generation flows around the back edge and would otherwise
			// self-justify the reuse even though the only other generator
			// sits in a branch. Require a dominating member (or an earlier
			// reference in u's own node).
			other := false
			for _, mem := range c.Members {
				if mem == u {
					continue
				}
				if mem.Node == u.Node && mem.ID < u.ID {
					other = true
					break
				}
				if res.Graph.Dominates(mem.Node, u.Node) {
					other = true
					break
				}
			}
			if !other {
				continue
			}
		}
		if res.InAt(u.Node, c).Covers(d) {
			out = append(out, Reuse{At: u, From: c, Distance: d})
		}
	}
	return out
}

// classDistance solves u = X[f(i−δ)] for δ given the class form f: with
// u = a·i + bu and f = a·i + bf, δ = (bf − bu)/a. ok=false when the linear
// parts differ or δ is not a nonnegative integer constant.
func classDistance(c *dataflow.Class, u *ir.Ref) (int64, bool) {
	if !c.Form.A.Equal(u.Form.A) {
		return 0, false
	}
	diff := c.Form.B.Sub(u.Form.B)
	q, ok := diff.DivExact(c.Form.A)
	if !ok {
		return 0, false
	}
	d, isConst := q.IsConst()
	if !isConst || d < 0 {
		return 0, false
	}
	return d, true
}

// ClassDistance is the exported form of classDistance for analysis
// consumers (the lint layer): it reports the iteration distance δ at which
// class c supplies the element read by u, when that distance is a
// nonnegative integer constant.
func ClassDistance(c *dataflow.Class, u *ir.Ref) (int64, bool) {
	return classDistance(c, u)
}

// RedundantStore records that the definition Store is δ-redundant: another
// store of class By overwrites the same element Distance iterations later
// on every path, with no intervening use (paper §4.2.1).
type RedundantStore struct {
	Store    *ir.Ref
	By       *dataflow.Class
	Distance int64
}

// String renders e.g. "store A[i+1]@n2 is 1-redundant (overwritten by A[i])".
func (r RedundantStore) String() string {
	return fmt.Sprintf("store %s@n%d is %d-redundant (overwritten by %s)",
		ast.ExprString(r.Store.Expr), r.Store.Node.ID, r.Distance, r.By)
}

// FindRedundantStores inspects a δ-busy solution: store s = X[f(i)] at node
// n is δ-redundant when some store class s′ = X[f(i−δ)] is δ-busy at n
// (IN[n,s′] covers δ; recall IN denotes node exit in a backward problem).
// δ = 0 redundancies (same-iteration overwrites) are reported only across
// distinct classes.
func FindRedundantStores(res *dataflow.Result) []RedundantStore {
	if res.FuelExhausted {
		return nil // degraded solve claims nothing (see FindReuses)
	}
	var out []RedundantStore
	for _, s := range res.Graph.Refs {
		if s.Kind != ir.Def || !s.Affine || s.FromInner {
			continue
		}
		for _, c := range res.ClassesOf(s.Array) {
			d, ok := backwardDistance(c, s)
			if !ok {
				continue
			}
			if d == 0 && res.ClassOf(s) == c {
				continue
			}
			pr := res.Pr(c, s.Node)
			if d < pr {
				continue
			}
			if res.InAt(s.Node, c).Covers(d) {
				out = append(out, RedundantStore{Store: s, By: c, Distance: d})
			}
		}
	}
	return out
}

// backwardDistance solves "class c overwrites s's element δ iterations
// later": c at iteration i+δ writes the location s writes at iteration i:
// a·(i+δ) + bc = a·i + bs ⇒ δ = (bs − bc)/a.
func backwardDistance(c *dataflow.Class, s *ir.Ref) (int64, bool) {
	if !c.Form.A.Equal(s.Form.A) {
		return 0, false
	}
	diff := s.Form.B.Sub(c.Form.B)
	q, ok := diff.DivExact(c.Form.A)
	if !ok {
		return 0, false
	}
	d, isConst := q.IsConst()
	if !isConst || d < 0 {
		return 0, false
	}
	return d, true
}

// Dependence is a loop-carried or loop-independent dependence between two
// subscripted references, detected from the δ-reaching solution (§4.3).
type Dependence struct {
	From, To *ir.Ref
	// Distance is the minimal iteration distance δ0 at which the references
	// may touch the same location (0 = loop-independent).
	Distance int64
	// Kind is "flow", "anti" or "output" by the def/use pattern.
	Kind string
}

// String renders e.g. "flow A[i+2]@n1 -> A[i]@n1 distance 2".
func (d Dependence) String() string {
	return fmt.Sprintf("%s %s@n%d -> %s@n%d distance %d",
		d.Kind, ast.ExprString(d.From.Expr), d.From.Node.ID,
		ast.ExprString(d.To.Expr), d.To.Node.ID, d.Distance)
}

// FindDependences examines the computed reaching information at each node:
// for references r2 at node n and classes r1 reaching n up to distance δ̂, a
// dependence from r1 to r2 with distance δ0 exists when δ0 ≤ δ̂ is the
// smallest distance at which the subscripts can overlap. Dependences with
// distance exceeding maxDist are discarded (pass a large bound for all).
func FindDependences(res *dataflow.Result, maxDist int64) []Dependence {
	var out []Dependence
	for _, r2 := range res.Graph.Refs {
		if !r2.Affine || r2.FromInner {
			continue
		}
		for _, c := range res.ClassesOf(r2.Array) {
			d0, ok := minOverlapDistance(c, r2)
			if !ok || d0 > maxDist {
				continue
			}
			pr := res.Pr(c, r2.Node)
			if d0 < pr {
				// The first possible overlap precedes the tracked range:
				// the references overlap only at negative or same-iteration
				// distances not flowing to r2.
				continue
			}
			if !res.InAt(r2.Node, c).Covers(d0) {
				continue
			}
			for _, r1 := range c.Members {
				// Both r1 and r2 being uses is no dependence.
				if r1.Kind == ir.Use && r2.Kind == ir.Use {
					continue
				}
				if r1 == r2 && d0 == 0 {
					continue
				}
				out = append(out, Dependence{
					From: r1, To: r2, Distance: d0,
					Kind: depKind(r1, r2),
				})
			}
		}
	}
	return out
}

// minOverlapDistance computes δ0, the smallest nonnegative integer δ such
// that class c at iteration i−δ may touch r2's location at iteration i:
// ∃i: f1(i−δ) = f2(i). For equal linear parts this is exact; for differing
// constant linear parts a conservative scan over small δ is used.
func minOverlapDistance(c *dataflow.Class, r2 *ir.Ref) (int64, bool) {
	if c.Form.A.Equal(r2.Form.A) {
		diff := c.Form.B.Sub(r2.Form.B)
		q, ok := diff.DivExact(c.Form.A)
		if !ok {
			if _, isC := diff.IsConst(); isC {
				// Constant non-divisible offset: never overlaps.
				return 0, false
			}
			return 0, true // symbolic: conservatively distance 0
		}
		d, isConst := q.IsConst()
		if !isConst {
			return 0, true
		}
		if d < 0 {
			return 0, false
		}
		return d, true
	}
	// Different strides: f1(i−δ) = f2(i) ⇔ a1·i − a1·δ + b1 = a2·i + b2.
	// With constant coefficients, for each δ ≥ 0 an integer solution i
	// exists iff (a1−a2) | (a1·δ + b2 − b1) — find the smallest such δ.
	a1, b1, ok1 := c.Form.ConstCoeffs()
	a2, b2, ok2 := constCoeffsOf(r2)
	if !ok1 || !ok2 {
		return 0, true // conservative
	}
	da := a1 - a2
	if da == 0 {
		return 0, true
	}
	for d := int64(0); d < 64; d++ {
		if (a1*d+b2-b1)%da == 0 {
			return d, true
		}
	}
	return 0, false
}

func constCoeffsOf(r *ir.Ref) (int64, int64, bool) {
	a, b, ok := r.Form.ConstCoeffs()
	return a, b, ok
}

func depKind(r1, r2 *ir.Ref) string {
	switch {
	case r1.Kind == ir.Def && r2.Kind == ir.Def:
		return "output"
	case r1.Kind == ir.Def && r2.Kind == ir.Use:
		return "flow"
	default:
		return "anti"
	}
}
