// Package depend builds the statement-level dependence graph of a loop body
// from the δ-reaching references solution and computes the critical-path
// predictions that drive controlled loop unrolling (paper §4.3).
package depend

import (
	"fmt"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/problems"
)

// Edge is a dependence between two statement nodes with an iteration
// distance (0 = loop-independent).
type Edge struct {
	From, To int // node IDs in the loop flow graph
	Distance int64
	Kind     string // flow, anti, output
	// FromRef and ToRef are the array references the dependence runs
	// between, for diagnostics that need source positions.
	FromRef, ToRef *ir.Ref
}

// Graph is the dependence graph over the statement nodes of one loop.
type Graph struct {
	Flow *ir.Graph
	// StmtIDs are the node IDs that carry computation (assignments and
	// summaries), in execution order.
	StmtIDs []int
	Edges   []Edge
}

// Build computes the dependence graph. res must be a δ-reaching-references
// solution over g (problems.ReachingRefs); maxDist bounds the recorded
// distances (unrolling only needs small distances).
func Build(g *ir.Graph, res *dataflow.Result, maxDist int64) *Graph {
	dg := &Graph{Flow: g}
	for _, nd := range g.Nodes {
		if nd.Kind == ir.KindStmt || nd.Kind == ir.KindSummary || nd.Kind == ir.KindCond {
			dg.StmtIDs = append(dg.StmtIDs, nd.ID)
		}
	}
	type edgeKey struct {
		from, to int
		distance int64
		kind     string
	}
	seen := map[edgeKey]bool{}
	for _, d := range problems.FindDependences(res, maxDist) {
		e := Edge{From: d.From.Node.ID, To: d.To.Node.ID, Distance: d.Distance, Kind: d.Kind,
			FromRef: d.From, ToRef: d.To}
		// Loop-independent edges must respect execution order; the query
		// layer guarantees a preceding member exists for distance 0, but
		// per-member pairs can be reversed — drop those.
		if e.Distance == 0 && !g.Precedes(d.From.Node, d.To.Node) {
			continue
		}
		key := edgeKey{e.From, e.To, e.Distance, e.Kind}
		if seen[key] {
			continue
		}
		seen[key] = true
		dg.Edges = append(dg.Edges, e)
	}
	return dg
}

// BuildFromLoop is a convenience that solves δ-reaching references first.
func BuildFromLoop(g *ir.Graph, maxDist int64) *Graph {
	res := problems.Solve(g, problems.ReachingRefs())
	return Build(g, res, maxDist)
}

// CriticalPath returns the length (in statements) of the longest chain of
// loop-independent dependences in one iteration of the loop body — the
// paper's l.
func (dg *Graph) CriticalPath() int64 {
	return dg.UnrolledCriticalPath(1)
}

// UnrolledCriticalPath returns the critical path length of u logically
// concatenated iterations, where loop-carried dependences with distance
// d < u connect copy c to copy c+d — the paper's l_unroll. Each statement
// costs one unit.
func (dg *Graph) UnrolledCriticalPath(u int) int64 {
	if u <= 0 {
		return 0
	}
	pos := map[int]int{}
	for i, id := range dg.StmtIDs {
		pos[id] = i
	}
	n := len(dg.StmtIDs)
	if n == 0 {
		return 0
	}
	// dp over the DAG: nodes ordered copy-major, statements in execution
	// order within a copy. All edges go forward in this order: distance 0
	// edges point to later statements (enforced in Build), carried edges to
	// later copies.
	total := n * u
	dp := make([]int64, total)
	for i := range dp {
		dp[i] = 1
	}
	longest := int64(1)
	for c := 0; c < u; c++ {
		for s := 0; s < n; s++ {
			idx := c*n + s
			id := dg.StmtIDs[s]
			for _, e := range dg.Edges {
				if e.From != id {
					continue
				}
				tc := c + int(e.Distance)
				if tc >= u {
					continue
				}
				tIdx := tc*n + pos[e.To]
				if tIdx <= idx {
					continue // defensive: ignore non-forward edges
				}
				if dp[idx]+1 > dp[tIdx] {
					dp[tIdx] = dp[idx] + 1
				}
			}
			if dp[idx] > longest {
				longest = dp[idx]
			}
		}
	}
	return longest
}

// HasCarriedDistance reports whether any dependence with the exact distance
// d exists.
func (dg *Graph) HasCarriedDistance(d int64) bool {
	for _, e := range dg.Edges {
		if e.Distance == d {
			return true
		}
	}
	return false
}

// String renders the dependence edges.
func (dg *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dependence graph (%d stmts, %d edges)\n", len(dg.StmtIDs), len(dg.Edges))
	for _, e := range dg.Edges {
		fmt.Fprintf(&b, "  n%d -%s(%d)-> n%d\n", e.From, e.Kind, e.Distance, e.To)
	}
	return b.String()
}
