// Differential suites: the solver (whose tests keep its historical
// "packed" label) against the executable specification in
// internal/dataflow/reference, over a corpus of hand-written and synthetic
// loops, every standard problem, and the option axes (trace, ablations,
// fuel budgets, stored value widths).
package dataflow_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/dataflow/reference"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/lattice"
	"repro/internal/parser"
	"repro/internal/problems"
	"repro/internal/synth"
)

func buildGraph(t testing.TB, src string) *ir.Graph {
	t.Helper()
	prog := parser.MustParse(src)
	g, err := ir.Build(prog.Body[0].(*ast.DoLoop), nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// differentialSources is the fuzz corpus: hand-written programs covering
// summary nodes, regions, conditionals, known loop bounds (small enough
// that the exit clamp saturates distances), a negative stride, and
// distances stored at 16 and 64 bits, plus synthetic loops across a
// seed/shape sweep.
func differentialSources() map[string]string {
	srcs := map[string]string{"fig1": experiments.Fig1Source}
	paths, err := filepath.Glob(filepath.Join("testdata", "differential", "*.loop"))
	if err != nil || len(paths) == 0 {
		panic(fmt.Sprintf("no differential corpus in testdata: %v", err))
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			panic(err)
		}
		srcs[strings.TrimSuffix(filepath.Base(p), ".loop")] = string(src)
	}
	for seed := int64(1); seed <= 6; seed++ {
		p := synth.Params{
			Seed:     seed,
			Stmts:    4 + int(seed)*5,
			Arrays:   1 + int(seed%4),
			MaxDist:  1 + seed%5,
			CondProb: float64(seed%3) * 0.3,
			UB:       (seed % 2) * 50,
		}
		prog := synth.Loop(p)
		srcs[fmt.Sprintf("synth-%d", seed)] = ast.StmtString(prog.Body[0], 0)
	}
	return srcs
}

// sortedNames returns the corpus keys in order, so failures reproduce in a
// stable sequence.
func sortedNames(srcs map[string]string) []string {
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// checkResultsIdentical asserts byte-identical tuples, snapshots, traces,
// pr values, and work counters between the solver and the oracle.
func checkResultsIdentical(t *testing.T, label string, got *dataflow.Result, want *reference.Result) {
	t.Helper()
	if err := reference.Compare(got, want); err != nil {
		t.Errorf("%s: %v", label, err)
	}
}

// TestPackedReferenceDifferential runs the solver and the oracle over the
// corpus, all four standard specs, and the option axes, asserting
// identical results.
func TestPackedReferenceDifferential(t *testing.T) {
	optVariants := []struct {
		name string
		opts dataflow.Options
	}{
		{"default", dataflow.Options{}},
		{"trace", dataflow.Options{CollectTrace: true}},
		{"skipinit", dataflow.Options{SkipInitPass: true}},
		{"maytop", dataflow.Options{MayTopStart: true, MaxPasses: 6, CollectTrace: true}},
	}
	srcs := differentialSources()
	for _, name := range sortedNames(srcs) {
		g := buildGraph(t, srcs[name])
		for _, spec := range problems.StandardSpecs() {
			for _, v := range optVariants {
				opts := v.opts
				checkResultsIdentical(t, name+"/"+spec.Name+"/"+v.name,
					dataflow.Solve(g, spec, &opts), reference.Solve(g, spec, &opts))
			}
		}
	}
}

// TestLaneWidthsCovered pins that the corpus stores fixed points at every
// value width (the name keeps the former lane widths' label) — 8, 16 and
// 64 bits — so the differential suites above compare each width against
// the oracle and FuzzRestoreResult's seeds, drawn from this corpus,
// decode each.
func TestLaneWidthsCovered(t *testing.T) {
	want := map[string]byte{"fig1": 8, "lane16": 16, "lane16-bounded": 16, "lane64": 64}
	seen := map[byte]bool{}
	srcs := differentialSources()
	for _, name := range sortedNames(srcs) {
		g := buildGraph(t, srcs[name])
		widest := byte(0)
		for _, spec := range problems.StandardSpecs() {
			width := dataflow.Solve(g, spec, nil).Rows()[0]
			seen[width] = true
			widest = max(widest, width)
		}
		if w, ok := want[name]; ok && widest != w {
			t.Errorf("%s: widest stored width = %d, want %d", name, widest, w)
		}
	}
	for _, width := range []byte{8, 16, 64} {
		if !seen[width] {
			t.Errorf("no corpus solve stored its fixed point at %d-bit values", width)
		}
	}
}

// clampSamples span the lattice's shape: bottom, several finite distances
// (including non-adjacent ones), and top.
var clampSamples = []lattice.Dist{
	lattice.None(), lattice.D(0), lattice.D(1), lattice.D(2),
	lattice.D(3), lattice.D(7), lattice.All(),
}

// TestClampsMatchOracle is the property behind the solver's one compiled
// form: every (node, class) flow function collapses to a clamp
// min(max(x, lo), hi) with lo ≤ hi, and that clamp equals the oracle's
// step-by-step op walk on every sample — so the compiled functions are
// monotone and idempotent because clamps are. The generate bit must match
// the op sequence's. Exit nodes apply the loop increment instead of a
// clamp and are covered by the differential suites.
func TestClampsMatchOracle(t *testing.T) {
	srcs := differentialSources()
	for _, name := range sortedNames(srcs) {
		g := buildGraph(t, srcs[name])
		for _, spec := range problems.StandardSpecs() {
			label := name + "/" + spec.Name
			clamps := dataflow.CompiledClamps(g, spec, nil)
			ref := reference.Solve(g, spec, nil)
			type slot struct{ node, class int }
			bySlot := map[slot]dataflow.Clamp{}
			for _, c := range clamps {
				if c.Lo.Cmp(c.Hi) > 0 {
					t.Errorf("%s: n%d class %d: lo %s > hi %s", label, c.Node, c.Class, c.Lo, c.Hi)
				}
				bySlot[slot{c.Node, c.Class}] = c
			}
			for _, nd := range g.Nodes {
				if nd.Kind == ir.KindExit {
					continue
				}
				for ci := range ref.Classes {
					c, ok := bySlot[slot{nd.ID, ci}]
					if !ok {
						c = dataflow.Clamp{Lo: lattice.None(), Hi: lattice.All()}
					}
					if c.Gen != ref.Generates(nd, ci) {
						t.Errorf("%s: n%d class %d: gen = %v, oracle %v", label, nd.ID, ci, c.Gen, !c.Gen)
					}
					for _, x := range clampSamples {
						got := lattice.Min(lattice.Max(x, c.Lo), c.Hi)
						if want := ref.Apply(nd, ci, x); !got.Eq(want) {
							t.Errorf("%s: n%d class %d: clamp(%s) = %s, op walk = %s", label, nd.ID, ci, x, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSolveAllMatchesSolve pins that the fused multi-spec entry point is
// observationally identical to independent Solve calls: both match the
// oracle exactly.
func TestSolveAllMatchesSolve(t *testing.T) {
	srcs := differentialSources()
	for _, name := range sortedNames(srcs) {
		g := buildGraph(t, srcs[name])
		specs := problems.StandardSpecs()
		opts := &dataflow.Options{CollectTrace: true}
		fused := dataflow.SolveAll(g, specs, opts)
		for i, spec := range specs {
			ref := reference.Solve(g, spec, opts)
			checkResultsIdentical(t, name+"/"+spec.Name+"/fused", fused[i], ref)
			checkResultsIdentical(t, name+"/"+spec.Name+"/solo", dataflow.Solve(g, spec, opts), ref)
		}
	}
}

// TestFuelDefaultNeverBinds pins that a zero Options.Fuel derives a budget
// the iteration cannot exhaust: results with and without an enormous
// explicit budget are identical, and FuelExhausted stays false across the
// whole corpus and every spec.
func TestFuelDefaultNeverBinds(t *testing.T) {
	srcs := differentialSources()
	for _, name := range sortedNames(srcs) {
		g := buildGraph(t, srcs[name])
		for _, spec := range problems.StandardSpecs() {
			res := dataflow.Solve(g, spec, nil)
			if res.FuelExhausted {
				t.Fatalf("%s/%s: default fuel budget %d exhausted", name, spec.Name, res.FuelBudget)
			}
			if res.FuelBudget <= 0 {
				t.Fatalf("%s/%s: non-positive derived budget %d", name, spec.Name, res.FuelBudget)
			}
			big := dataflow.Solve(g, spec, &dataflow.Options{Fuel: 1 << 40})
			if got, want := res.TupleTable(-1), big.TupleTable(-1); got != want {
				t.Errorf("%s/%s: default-fuel fixed point differs from unlimited", name, spec.Name)
			}
			checkResultsIdentical(t, name+"/"+spec.Name+"/default-fuel", res, reference.Solve(g, spec, nil))
		}
	}
}

// TestFuelExhaustionDeterministicAndSound fuzzes tiny fuel budgets over the
// corpus: for every budget the solver must exhaust exactly like the oracle
// (same counters, same degraded tuples), and the degraded values must be
// the claim-nothing value for the polarity — ⊥ for must, ⊤ for may — so
// consumers can only lose precision, never soundness.
func TestFuelExhaustionDeterministicAndSound(t *testing.T) {
	srcs := differentialSources()
	for _, name := range sortedNames(srcs) {
		g := buildGraph(t, srcs[name])
		for _, spec := range problems.StandardSpecs() {
			// Budgets from "dies at the first node" up past several passes.
			full := dataflow.Solve(g, spec, nil)
			budgets := []int64{1, 3, int64(len(full.Classes)) + 1, int64(full.FlowApps / 2), int64(full.FlowApps) - 1}
			for _, fuel := range budgets {
				if fuel <= 0 {
					continue
				}
				label := fmt.Sprintf("%s/%s/fuel=%d", name, spec.Name, fuel)
				opts := &dataflow.Options{Fuel: fuel, CollectTrace: true}
				res := dataflow.Solve(g, spec, opts)
				checkResultsIdentical(t, label, res, reference.Solve(g, spec, opts))
				if res.FuelBudget != fuel {
					t.Errorf("%s: FuelBudget = %d", label, res.FuelBudget)
				}
				if !res.FuelExhausted {
					continue
				}
				// Soundness: every degraded tuple is the claim-nothing value.
				want := lattice.None()
				if spec.May {
					want = lattice.All()
				}
				for _, nd := range g.Nodes {
					for _, c := range res.Classes {
						if !res.InAt(nd, c).Eq(want) || !res.OutAt(nd, c).Eq(want) {
							t.Fatalf("%s: node %d class %s not degraded to %s", label, nd.ID, c, want)
						}
					}
				}
				// Determinism: a repeat run exhausts with identical counters.
				again := dataflow.Solve(g, spec, opts)
				if again.NodeVisits != res.NodeVisits || again.FlowApps != res.FlowApps ||
					again.Passes != res.Passes || !again.FuelExhausted {
					t.Fatalf("%s: repeat run diverged: visits %d vs %d, apps %d vs %d",
						label, again.NodeVisits, res.NodeVisits, again.FlowApps, res.FlowApps)
				}
			}
		}
	}
}

// TestNestedBranchDifferential holds the solver to the oracle on 1,000
// random if/else nests (synth.IfNest): the solver walks each class only
// over the joins and branch arms whose inputs can disagree for it, and
// these nests put clamps inside arms, arms inside arms, else arms that
// open with an if, summary nodes and declaration-only arms in every
// arrangement. Each loop runs under every standard spec and option axis,
// a random small fuel budget included.
func TestNestedBranchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := int64(1); seed <= 1000; seed++ {
		g, err := ir.Build(synth.IfNest(seed).Body[0].(*ast.DoLoop), nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fuel := 1 + rng.Int63n(int64(3*len(g.Nodes)*max(1, len(g.Refs))))
		variants := []dataflow.Options{
			{},
			{CollectTrace: true},
			{SkipInitPass: true},
			{MayTopStart: true, MaxPasses: 6},
			{Fuel: fuel, CollectTrace: true},
		}
		for _, spec := range problems.StandardSpecs() {
			for i := range variants {
				opts := &variants[i]
				label := fmt.Sprintf("seed %d/%s/%+v", seed, spec.Name, *opts)
				checkResultsIdentical(t, label, dataflow.Solve(g, spec, opts), reference.Solve(g, spec, opts))
			}
		}
		if t.Failed() {
			t.Fatalf("seed %d:\n%s", seed, ast.ProgramString(synth.IfNest(seed)))
		}
	}
}
