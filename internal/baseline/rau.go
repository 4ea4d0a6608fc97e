// Package baseline implements a Rau-style name-propagation analysis
// (B. R. Rau, "Data flow and dependence analysis for instruction level
// parallelism", LCPC 1991) as the comparison point of the paper's §5.
//
// Rau's scheme propagates the textual names of referenced array element
// instances through the loop: definition d from k iterations back is the
// fact ⟨d, k⟩. Each traversal of the loop body ages the facts by one
// iteration, so detecting a recurrence of distance D takes D traversals —
// "the number of iterations over the program is in general unbounded and
// is thus, in practice, limited by a chosen upper bound resulting in a
// limited amount of information". The Duesterwald/Gupta/Soffa framework
// replaces the per-distance fact sets with a single maximal distance and
// converges in ≤ 3 passes regardless of D; this package makes that
// comparison measurable.
package baseline

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/problems"
)

// FactSet maps a tracked class index to the set of instance distances that
// must reach a point.
type FactSet map[int]map[int64]bool

func (f FactSet) clone() FactSet {
	out := make(FactSet, len(f))
	for c, ds := range f {
		cd := make(map[int64]bool, len(ds))
		for d := range ds {
			cd[d] = true
		}
		out[c] = cd
	}
	return out
}

func (f FactSet) equal(o FactSet) bool {
	if len(f) != len(o) {
		return false
	}
	for c, ds := range f {
		ods, ok := o[c]
		if !ok || len(ds) != len(ods) {
			return false
		}
		for d := range ds {
			if !ods[d] {
				return false
			}
		}
	}
	return true
}

// intersect keeps only facts present in both (must-information).
func (f FactSet) intersect(o FactSet) FactSet {
	out := FactSet{}
	for c, ds := range f {
		ods, ok := o[c]
		if !ok {
			continue
		}
		for d := range ds {
			if ods[d] {
				cd := out[c]
				if cd == nil {
					cd = map[int64]bool{}
					out[c] = cd
				}
				cd[d] = true
			}
		}
	}
	return out
}

// Result is the baseline's fixed point.
type Result struct {
	Graph   *ir.Graph
	Classes []*dataflow.Class
	// In holds the per-node fact sets (node entry).
	In []FactSet
	// Passes is the number of body traversals until stabilization (or the
	// limit).
	Passes int
	// Converged reports whether a fixed point was reached within the
	// distance limit.
	Converged bool
	// Limit is the distance bound facts were truncated at.
	Limit int64
}

// Options bounds the baseline.
type Options struct {
	// Limit is the maximal tracked instance distance (Rau's practical
	// bound). Facts older than Limit are dropped. Default 64.
	Limit int64
	// MaxPasses caps body traversals (default 4·Limit).
	MaxPasses int
}

// MustReachingDefs runs the baseline must-reaching-definitions analysis.
func MustReachingDefs(g *ir.Graph, opts *Options) *Result {
	if opts == nil {
		opts = &Options{}
	}
	limit := opts.Limit
	if limit <= 0 {
		limit = 64
	}
	maxPasses := opts.MaxPasses
	if maxPasses <= 0 {
		maxPasses = int(4 * limit)
	}

	// Reuse the framework's class construction so both analyses answer
	// queries about the same entities.
	spec := problems.MustReachingDefs()
	fw := dataflow.Solve(g, spec, &dataflow.Options{MaxPasses: 1})
	res := &Result{Graph: g, Classes: fw.Classes, Limit: limit}

	n := len(g.Nodes)
	in := make([]FactSet, n+1)
	out := make([]FactSet, n+1)
	for i := 1; i <= n; i++ {
		in[i] = FactSet{}
		out[i] = FactSet{}
	}

	// Node IDs are a topological order of the body with the exit last
	// (ir.Build), so each pass reads its predecessors' sets from the same
	// pass, and the entry reads the exit's from the pass before.
	for pass := 1; pass <= maxPasses; pass++ {
		changed := false
		for _, nd := range g.Nodes {
			var acc FactSet
			first := true
			for _, p := range nd.Preds {
				if first {
					acc = out[p.ID].clone()
					first = false
				} else {
					acc = acc.intersect(out[p.ID])
				}
			}
			if acc == nil {
				acc = FactSet{}
			}
			if pass == 1 {
				// First traversal: back-edge information is still empty;
				// keep the intersection as computed (empty from exit).
			}
			in[nd.ID] = acc
			newOut := transfer(nd, g, fw, acc, limit)
			if !newOut.equal(out[nd.ID]) {
				out[nd.ID] = newOut
				changed = true
			}
		}
		res.Passes = pass
		if !changed {
			res.Converged = true
			break
		}
	}
	res.In = in
	return res
}

// transfer applies node effects to a fact set. fw supplies the tracked
// classes: a killer pairs only with the classes over its own array, and a
// generating definition with its own class.
func transfer(nd *ir.Node, g *ir.Graph, fw *dataflow.Result, in FactSet, limit int64) FactSet {
	out := in.clone()

	if nd.Kind == ir.KindExit {
		aged := FactSet{}
		for c, ds := range out {
			for d := range ds {
				if d+1 <= limit {
					cd := aged[c]
					if cd == nil {
						cd = map[int64]bool{}
						aged[c] = cd
					}
					cd[d+1] = true
				}
			}
		}
		return aged
	}

	// Kills: a definition at this node removes exactly the instances whose
	// element it overwrites (per-distance exact check — the precision Rau
	// buys with unbounded iteration).
	for _, r := range nd.Refs {
		if r.Kind != ir.Def {
			continue
		}
		for _, c := range fw.ClassesOf(r.Array) {
			ds := out[c.Index]
			for d := range ds {
				if killsAt(c, r, d, g) {
					delete(ds, d)
				}
			}
		}
	}

	// Gen: definitions occurring here add the distance-0 instance.
	for _, r := range nd.Refs {
		if c := fw.ClassOf(r); c != nil {
			cd := out[c.Index]
			if cd == nil {
				cd = map[int64]bool{}
				out[c.Index] = cd
			}
			cd[0] = true
		}
	}
	return out
}

func sameForm(c *dataflow.Class, r *ir.Ref) bool {
	return c.Array == r.Array && c.Form.A.Equal(r.Form.A) && c.Form.B.Equal(r.Form.B)
}

// killsAt reports whether killer r overwrites class c's instance from d
// iterations back in some iteration: ∃i ∈ I: f_r(i) = f_c(i−d).
func killsAt(c *dataflow.Class, r *ir.Ref, d int64, g *ir.Graph) bool {
	if !r.Affine || r.FromInner {
		return true // unknown region: kill conservatively
	}
	if sameForm(c, r) {
		return d == 0 // the same textual definition overwrites only itself
	}
	a1, b1, ok1 := c.Form.ConstCoeffs()
	a2, b2, ok2 := r.Form.ConstCoeffs()
	if !ok1 || !ok2 {
		// Symbolic forms: equal linear parts with constant offset are
		// decidable; everything else kills conservatively.
		if c.Form.A.Equal(r.Form.A) {
			diff := c.Form.B.Sub(r.Form.B)
			if q, ok := diff.DivExact(c.Form.A); ok {
				if kd, isC := q.IsConst(); isC {
					return kd == d
				}
			}
		}
		return true
	}
	// a2·i + b2 = a1·(i−d) + b1 for some integer i ≥ 1 (≤ UB if known).
	da := a2 - a1
	rhs := b1 - a1*d - b2
	if da == 0 {
		return rhs == 0
	}
	if rhs%da != 0 {
		return false
	}
	i := rhs / da
	if i < 1 {
		return false
	}
	if g.HasUB && i > g.UBConst {
		return false
	}
	return true
}

// ReachesWithDistance answers the framework-equivalent query: does class c
// must-reach node nd at distance d?
func (r *Result) ReachesWithDistance(nd *ir.Node, classIdx int, d int64) bool {
	return r.In[nd.ID][classIdx][d]
}
