package baseline

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/problems"
	"repro/internal/synth"
)

func buildLoop(t *testing.T, prog *ast.Program) *ir.Graph {
	t.Helper()
	loop := prog.Body[0].(*ast.DoLoop)
	g := ir.Build(loop, nil)
	return g
}

// TestAgreesWithFrameworkOnRecurrence: for the distance-D recurrence both
// analyses must agree on every queryable distance ≤ limit.
func TestAgreesWithFrameworkOnRecurrence(t *testing.T) {
	for _, d := range []int64{1, 2, 3, 5, 8} {
		g := buildLoop(t, synth.RecurrenceLoop(d, 0))
		fw := problems.Solve(g, problems.MustReachingDefs())
		bl := MustReachingDefs(g, &Options{Limit: 32})
		if !bl.Converged {
			t.Fatalf("d=%d: baseline did not converge", d)
		}
		for ci, c := range fw.Classes {
			for _, nd := range g.Nodes {
				fwVal := fw.InAt(nd, c)
				pr := fw.Pr(c, nd)
				for dist := pr; dist <= 16; dist++ {
					fwHas := fwVal.Covers(dist)
					blHas := bl.ReachesWithDistance(nd, ci, dist)
					if fwHas != blHas {
						t.Errorf("d=%d node %d class %s dist %d: framework=%v baseline=%v",
							d, nd.ID, c, dist, fwHas, blHas)
					}
				}
			}
		}
	}
}

// TestPassesGrowWithDistance: to capture a distance-d recurrence, Rau's
// truncation bound must be ≥ d, and the traversal count then grows with
// that bound — while the framework stays at ≤ 3 passes for every d. This is
// the paper's practicality claim made measurable: the baseline's cost is
// Θ(limit) because some value always survives the whole loop, whereas the
// chain-lattice summary converges in constant passes.
func TestPassesGrowWithDistance(t *testing.T) {
	prev := 0
	for _, d := range []int64{2, 8, 24} {
		g := buildLoop(t, synth.KilledRecurrenceLoop(d, 0))
		bl := MustReachingDefs(g, &Options{Limit: 2 * d})
		if !bl.Converged {
			t.Fatalf("d=%d: did not converge", d)
		}
		if bl.Passes < int(d) {
			t.Errorf("d=%d: baseline passes = %d, expected ≥ %d", d, bl.Passes, d)
		}
		if bl.Passes <= prev {
			t.Errorf("passes did not grow: %d after %d", bl.Passes, prev)
		}
		prev = bl.Passes

		fw := dataflow.Solve(g, problems.MustReachingDefs(), nil)
		if fw.ChangedPasses > 2 {
			t.Errorf("d=%d: framework changed passes = %d, want ≤ 2", d, fw.ChangedPasses)
		}
	}
}

// TestUnkilledRecurrenceSaturatesAtLimit documents the other face of Rau's
// cost: when nothing kills old instances the exact fact sets keep growing
// and convergence is dictated by the truncation limit, not by the program.
func TestUnkilledRecurrenceSaturatesAtLimit(t *testing.T) {
	g := buildLoop(t, synth.RecurrenceLoop(3, 0))
	for _, limit := range []int64{8, 32} {
		bl := MustReachingDefs(g, &Options{Limit: limit})
		if !bl.Converged {
			t.Fatalf("limit=%d: did not converge", limit)
		}
		if bl.Passes < int(limit) {
			t.Errorf("limit=%d: passes = %d, expected ≥ limit", limit, bl.Passes)
		}
	}
}

// TestLimitLosesInformation: with a truncation limit below the recurrence
// distance the baseline misses the reuse entirely (paper §5: "a limited
// amount of information"), while the framework still reports it.
func TestLimitLosesInformation(t *testing.T) {
	const d = 12
	g := buildLoop(t, synth.RecurrenceLoop(d, 0))
	fw := problems.Solve(g, problems.MustReachingDefs())

	// The use A[i] reuses the definition A[i+d] at distance d.
	reuses := problems.FindReuses(fw)
	if len(reuses) != 1 || reuses[0].Distance != d {
		t.Fatalf("framework reuses = %v, want distance %d", reuses, int64(d))
	}

	short := MustReachingDefs(g, &Options{Limit: d - 2})
	found := false
	for ci := range short.Classes {
		for _, nd := range g.Nodes {
			if short.ReachesWithDistance(nd, ci, d) {
				found = true
			}
		}
	}
	if found {
		t.Error("truncated baseline should not see the distance-d fact")
	}

	full := MustReachingDefs(g, &Options{Limit: d + 4})
	node := reuses[0].At.Node
	ci := reuses[0].From.Index
	if !full.ReachesWithDistance(node, ci, d) {
		t.Error("untruncated baseline must see the distance-d fact")
	}
}

// TestConditionalAgreement: flow-sensitivity matches on branching loops.
func TestConditionalAgreement(t *testing.T) {
	g := buildLoop(t, synth.Loop(synth.Params{Seed: 42, Stmts: 6, Arrays: 2, MaxDist: 3, CondProb: 0.4}))
	fw := problems.Solve(g, problems.MustReachingDefs())
	bl := MustReachingDefs(g, &Options{Limit: 32})
	if !bl.Converged {
		t.Fatal("baseline did not converge")
	}
	for ci, c := range fw.Classes {
		for _, nd := range g.Nodes {
			pr := fw.Pr(c, nd)
			for dist := pr; dist <= 8; dist++ {
				fwHas := fw.InAt(nd, c).Covers(dist)
				blHas := bl.ReachesWithDistance(nd, ci, dist)
				// The framework is allowed to be more conservative (it
				// underestimates with a single maximal distance; the
				// baseline tracks exact sets). It must never claim more.
				if fwHas && !blHas {
					t.Errorf("node %d class %s dist %d: framework claims a fact the exact baseline lacks",
						nd.ID, c, dist)
				}
			}
		}
	}
}

// TestSynthDeterminism: same seed, same program.
func TestSynthDeterminism(t *testing.T) {
	p1 := synth.Loop(synth.Params{Seed: 7, Stmts: 10, Arrays: 3, MaxDist: 5, CondProb: 0.3})
	p2 := synth.Loop(synth.Params{Seed: 7, Stmts: 10, Arrays: 3, MaxDist: 5, CondProb: 0.3})
	if ast.ProgramString(p1) != ast.ProgramString(p2) {
		t.Fatal("generator not deterministic")
	}
	p3 := synth.Loop(synth.Params{Seed: 8, Stmts: 10, Arrays: 3, MaxDist: 5, CondProb: 0.3})
	if ast.ProgramString(p1) == ast.ProgramString(p3) {
		t.Fatal("different seeds produced identical programs")
	}
}

// TestSynthShapes: the special generators have the promised structure.
func TestSynthShapes(t *testing.T) {
	rec := synth.RecurrenceLoop(3, 100)
	g := buildLoop(t, rec)
	if len(g.Nodes) != 2 {
		t.Errorf("recurrence loop nodes = %d, want 2", len(g.Nodes))
	}
	chain := synth.ChainLoop(5, 1, 0)
	g2 := buildLoop(t, chain)
	if len(g2.Nodes) != 7 {
		t.Errorf("chain loop nodes = %d, want 7 (5+1 stmts + exit)", len(g2.Nodes))
	}
	wide := synth.WideLoop(10, 50)
	g3 := buildLoop(t, wide)
	if len(g3.Nodes) != 11 {
		t.Errorf("wide loop nodes = %d, want 11", len(g3.Nodes))
	}
}
