// Package synth generates synthetic structured loops for parameter sweeps:
// the workload generator behind the convergence, scaling and baseline
// benchmarks (experiments E9–E11 in DESIGN.md).
package synth

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/ast"
	"repro/internal/parser"
)

// Params controls generation.
type Params struct {
	// Seed makes generation deterministic.
	Seed int64
	// Stmts is the number of assignments in the loop body.
	Stmts int
	// Arrays is the number of distinct arrays.
	Arrays int
	// MaxDist bounds the subscript offsets (and hence reuse distances).
	MaxDist int64
	// CondProb is the probability (0..1) that a statement is wrapped in a
	// conditional.
	CondProb float64
	// UB is the loop bound (0 = symbolic "N").
	UB int64
}

// Loop generates a random structured DO loop as a program. The result is
// always parseable, normalized, and uses only affine subscripts.
func Loop(p Params) *ast.Program {
	if p.Stmts <= 0 {
		p.Stmts = 8
	}
	if p.Arrays <= 0 {
		p.Arrays = 3
	}
	if p.MaxDist <= 0 {
		p.MaxDist = 4
	}
	rng := rand.New(rand.NewSource(p.Seed))

	var b strings.Builder
	bound := "N"
	if p.UB > 0 {
		bound = fmt.Sprintf("%d", p.UB)
	}
	fmt.Fprintf(&b, "do i = 1, %s\n", bound)
	for s := 0; s < p.Stmts; s++ {
		stmt := genAssign(rng, p)
		if rng.Float64() < p.CondProb {
			fmt.Fprintf(&b, "  if c%d > 0 then\n    %s\n  endif\n", rng.Intn(4), stmt)
		} else {
			fmt.Fprintf(&b, "  %s\n", stmt)
		}
	}
	b.WriteString("enddo\n")
	return parser.MustParse(b.String())
}

func arrayName(k int) string { return fmt.Sprintf("A%d", k) }

func genAssign(rng *rand.Rand, p Params) string {
	defArr := arrayName(rng.Intn(p.Arrays))
	defOff := rng.Int63n(p.MaxDist + 1)
	lhs := fmt.Sprintf("%s[i+%d]", defArr, defOff)
	// RHS: one or two loads plus a scalar.
	var rhs []string
	for n := 0; n < 1+rng.Intn(2); n++ {
		useArr := arrayName(rng.Intn(p.Arrays))
		useOff := rng.Int63n(p.MaxDist + 1)
		if useOff == 0 {
			rhs = append(rhs, fmt.Sprintf("%s[i]", useArr))
		} else {
			rhs = append(rhs, fmt.Sprintf("%s[i-%d]", useArr, useOff))
		}
	}
	rhs = append(rhs, fmt.Sprintf("x%d", rng.Intn(3)))
	return fmt.Sprintf("%s := %s", lhs, strings.Join(rhs, " + "))
}

// RecurrenceLoop generates the canonical distance-D recurrence
//
//	do i = 1, UB
//	  A[i+D] := A[i] + x
//	enddo
//
// used to measure how analysis cost scales with the recurrence distance
// (the framework stays at 3 passes; the Rau baseline needs Θ(D)).
func RecurrenceLoop(d int64, ub int64) *ast.Program {
	bound := "N"
	if ub > 0 {
		bound = fmt.Sprintf("%d", ub)
	}
	src := fmt.Sprintf("do i = 1, %s\n  A[i+%d] := A[i] + x\nenddo\n", bound, d)
	return parser.MustParse(src)
}

// KilledRecurrenceLoop generates a distance-D recurrence whose older
// instances are killed at exactly distance D:
//
//	do i = 1, UB
//	  A[i+D] := A[i] + x
//	  A[i] := x
//	enddo
//
// The live fact set stabilizes at D entries, so a name-propagation analysis
// needs Θ(D) traversals to converge while the framework still needs 3
// passes — the sharpest version of the E10 comparison.
func KilledRecurrenceLoop(d int64, ub int64) *ast.Program {
	bound := "N"
	if ub > 0 {
		bound = fmt.Sprintf("%d", ub)
	}
	src := fmt.Sprintf("do i = 1, %s\n  A[i+%d] := A[i] + x\n  A[i] := x\nenddo\n", bound, d)
	return parser.MustParse(src)
}

// ChainLoop generates a body with an s-statement dependence chain, used by
// the unrolling benches:
//
//	B1[i] := B0[i] + x ; B2[i] := B1[i] + x ; … ; B0[i+carry] := Bs[i]
//
// carry = 1 makes the chain loop-carried serial; carry = 0 omits the
// closing statement.
func ChainLoop(s int, carry int64, ub int64) *ast.Program {
	bound := "N"
	if ub > 0 {
		bound = fmt.Sprintf("%d", ub)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "do i = 1, %s\n", bound)
	for k := 1; k <= s; k++ {
		fmt.Fprintf(&b, "  B%d[i] := B%d[i] + x\n", k, k-1)
	}
	if carry > 0 {
		fmt.Fprintf(&b, "  B0[i+%d] := B%d[i]\n", carry, s)
	}
	b.WriteString("enddo\n")
	return parser.MustParse(b.String())
}

// MultiParams controls MultiLoopProgram generation.
type MultiParams struct {
	// Seed makes generation deterministic.
	Seed int64
	// Loops is the number of top-level loops (default 8).
	Loops int
	// StmtsPer is the number of assignments per loop body (default 6).
	StmtsPer int
	// NestEvery wraps every k-th top-level loop in an enclosing loop,
	// producing a tight two-level nest (0 = all loops flat). Mixed depths
	// exercise the driver's wave schedule and the §3.6 re-analyses.
	NestEvery int
	// DistinctBodies > 0 draws the loop bodies from a cycle of only that
	// many distinct texts, so a memoizing driver sees repeats; 0 makes
	// every body distinct (the cache-hostile extreme).
	DistinctBodies int
	// UB is the loop bound (0 = symbolic "N").
	UB int64
}

// MultiLoopProgram generates a whole program of many sibling loops (with
// optional two-level nests), the workload for the parallel driver's
// scheduling, determinism, and memoization tests.
func MultiLoopProgram(p MultiParams) *ast.Program {
	if p.Loops <= 0 {
		p.Loops = 8
	}
	if p.StmtsPer <= 0 {
		p.StmtsPer = 6
	}
	bound := "N"
	if p.UB > 0 {
		bound = fmt.Sprintf("%d", p.UB)
	}
	inner := Params{Arrays: 4, MaxDist: 5}
	var b strings.Builder
	for k := 0; k < p.Loops; k++ {
		bodyID := int64(k)
		if p.DistinctBodies > 0 {
			bodyID = int64(k % p.DistinctBodies)
		}
		rng := rand.New(rand.NewSource(p.Seed*1_000_003 + bodyID))
		nested := p.NestEvery > 0 && k%p.NestEvery == p.NestEvery-1
		ind := "  "
		if nested {
			fmt.Fprintf(&b, "do j = 1, %s\n", bound)
			ind = "    "
		}
		fmt.Fprintf(&b, "%sdo i = 1, %s\n", ind[2:], bound)
		for s := 0; s < p.StmtsPer; s++ {
			fmt.Fprintf(&b, "%s%s\n", ind, genAssign(rng, inner))
		}
		fmt.Fprintf(&b, "%senddo\n", ind[2:])
		if nested {
			b.WriteString("enddo\n")
		}
	}
	return parser.MustParse(b.String())
}

// WideLoop generates n independent statements (no dependences), the
// fully-parallel extreme for scaling benches.
func WideLoop(n int, ub int64) *ast.Program {
	bound := "N"
	if ub > 0 {
		bound = fmt.Sprintf("%d", ub)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "do i = 1, %s\n", bound)
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "  C%d[i] := x%d + i\n", k, k%4)
	}
	b.WriteString("enddo\n")
	return parser.MustParse(b.String())
}

// IfNest generates a random loop of if/else nests up to three deep: the
// control flow whose joins and branch arms a solver must meet correctly.
// Else arms often open with an if, some ifs have no else, inner loops
// become summary nodes, and the outer and inner trip counts are constant
// or symbolic. An arm is sometimes only a declaration, which lays out no
// node, so control falls through it to the statement after its if.
func IfNest(seed int64) *ast.Program {
	rng := rand.New(rand.NewSource(seed))
	n := nester{rng: rng, p: Params{Arrays: 1 + rng.Intn(3), MaxDist: 1 + rng.Int63n(4)}}
	fmt.Fprintf(&n.b, "do i = 1, %s\n", n.trip())
	n.block(1, 2+rng.Intn(5), false)
	n.b.WriteString("enddo\n")
	return parser.MustParse(n.b.String())
}

// nester writes one IfNest program.
type nester struct {
	rng *rand.Rand
	p   Params
	b   strings.Builder
}

// trip returns a trip count: symbolic or a small constant.
func (n *nester) trip() string {
	if n.rng.Intn(2) == 0 {
		return "N"
	}
	return fmt.Sprint(2 + n.rng.Intn(12))
}

// block writes k statements at nesting depth d (1 is the loop body); with
// openIf the first one is an if when the depth allows another level.
func (n *nester) block(d, k int, openIf bool) {
	ind := strings.Repeat("  ", d)
	for s := 0; s < k; s++ {
		r := n.rng.Intn(12)
		switch {
		case d <= 3 && (r < 4 || openIf && s == 0):
			fmt.Fprintf(&n.b, "%sif c%d > 0 then\n", ind, n.rng.Intn(4))
			n.arm(d+1, false)
			if n.rng.Intn(3) > 0 {
				fmt.Fprintf(&n.b, "%selse\n", ind)
				n.arm(d+1, n.rng.Intn(2) == 0)
			}
			fmt.Fprintf(&n.b, "%sendif\n", ind)
		case r < 6:
			def, use := arrayName(n.rng.Intn(n.p.Arrays)), arrayName(n.rng.Intn(n.p.Arrays))
			fmt.Fprintf(&n.b, "%sdo j = 1, %s\n%s  %s[j+%d] := %s[i-%d] + j\n%senddo\n",
				ind, n.trip(), ind, def, n.rng.Intn(3), use, n.rng.Int63n(n.p.MaxDist+1), ind)
		default:
			fmt.Fprintf(&n.b, "%s%s\n", ind, genAssign(n.rng, n.p))
		}
	}
}

// arm writes one branch of an if at depth d: usually statements, once in
// a while just a declaration.
func (n *nester) arm(d int, openIf bool) {
	if n.rng.Intn(16) == 0 {
		fmt.Fprintf(&n.b, "%sdim D%d[8]\n", strings.Repeat("  ", d), n.rng.Intn(4))
		return
	}
	n.block(d, 1+n.rng.Intn(3), openIf)
}
