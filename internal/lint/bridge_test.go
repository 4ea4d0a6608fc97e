package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/lint"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/synth"
)

// analyzeSource runs the front end and the driver over src, memo-free.
func analyzeSource(t *testing.T, src string) *driver.ProgramAnalysis {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	norm, err := sema.Normalize(prog)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	pa, err := driver.Analyze(norm, &driver.Options{Specs: lint.Specs(), Parallelism: 1, DisableCache: true})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return pa
}

// TestBridgeRunCount pins the shared bridge's cost: k constant-trip racy
// loops take one trip probe and one natural run, 2 runs in all (checking
// each loop alone took 2k), and every parallel loop adds exactly one
// shuffled run (alone it took 3).
func TestBridgeRunCount(t *testing.T) {
	for k := 1; k <= 4; k++ {
		for p := 0; p <= 2; p++ {
			var b strings.Builder
			for r := 0; r < k; r++ {
				fmt.Fprintf(&b, "do i = 1, 12\n  R%d[i+1] := R%d[i] + 1\nenddo\n", r, r)
			}
			for q := 0; q < p; q++ {
				fmt.Fprintf(&b, "do i = 1, 12\n  P%d[i] := P%d[i] * 2\nenddo\n", q, q)
			}
			pa := analyzeSource(t, b.String())
			fs, runs := lint.RunOnCountingRuns("<runs>", pa, &lint.Options{Parallelism: 1, Analyzers: []string{"race"}})
			var confirmed, verified int
			for _, f := range fs {
				if f.Severity == diag.Error {
					t.Fatalf("k=%d p=%d: bridge failure: %s", k, p, f)
				}
				if f.Detail["replay"] == "confirmed" {
					confirmed++
				}
				if f.Detail["permutation"] == "verified" {
					verified++
				}
			}
			if confirmed != k || verified != p {
				t.Fatalf("k=%d p=%d: %d confirmed and %d verified verdicts", k, p, confirmed, verified)
			}
			if runs != 2+p {
				t.Errorf("k=%d racy and p=%d parallel loops took %d interpreter runs, want %d", k, p, runs, 2+p)
			}
		}
	}
}

// bridgePrograms returns the differential corpus: every example program
// plus a seeded synthetic sweep mixing constant and symbolic trip counts,
// nests, guards, and loops that share arrays.
func bridgePrograms(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, pattern := range []string{"*.loop", "*/*.loop"} {
		paths, err := filepath.Glob(filepath.Join("..", "..", "examples", pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			out[p] = string(b)
		}
	}
	// Witnesses past the default trip count drive the symbolic bounds to
	// several environments, each with its own probe and natural run.
	out["envs"] = "do i = 1, n\n  A[i+9] := A[i] + 1\nenddo\n" +
		"do i = 1, n\n  B[i+1] := B[i] + A[i]\nenddo\n" +
		"do i = 1, m\n  C[i+20] := C[i] + B[i+2]\nenddo\n" +
		"do i = 1, n\n  D[2*i] := D[2*i+1] + C[i]\nenddo\n" +
		"do i = 1, m\n  E[2*i] := E[2*i+3] + D[i]\nenddo\n"
	for seed := int64(1); seed <= 6; seed++ {
		ub := int64(0)
		if seed%2 == 0 {
			ub = 12
		}
		prog := synth.MultiLoopProgram(synth.MultiParams{Seed: seed, Loops: 5, StmtsPer: 4, NestEvery: 3, UB: ub})
		out[fmt.Sprintf("multi-%d", seed)] = ast.ProgramString(prog)
		loop := synth.Loop(synth.Params{Seed: seed, Stmts: 6, MaxDist: 3, CondProb: 0.3, UB: ub})
		out[fmt.Sprintf("loop-%d", seed)] = ast.ProgramString(loop)
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestSharedBridgeMatchesSoloRuns is the shared bridge's differential: on
// every loop of the corpus, each check run inside one shared bridge —
// every racy witness, and a permutation check on every loop, racy ones
// included so divergence texts are compared too — must give exactly the
// outcome of running that check alone.
func TestSharedBridgeMatchesSoloRuns(t *testing.T) {
	progs := bridgePrograms(t)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	slices.Sort(names)
	var witnesses, diverged int
	for _, name := range names {
		pa := analyzeSource(t, progs[name])
		var checks []lint.BridgeCheck
		for _, la := range pa.Loops {
			v := lint.CertifyLoop(&lint.Context{Program: pa.Prog, Info: pa.Info, Loop: la})
			if v.Witness != nil {
				checks = append(checks, lint.BridgeCheck{Loop: la.Loop, Witness: v.Witness})
				witnesses++
			}
			checks = append(checks, lint.BridgeCheck{Loop: la.Loop, Seed: 0x5eed})
		}
		shared, _ := lint.SharedBridge(pa.Prog, checks, 2)
		for i, c := range checks {
			var solo error
			if c.Witness != nil {
				solo = lint.ReplayWitness(pa.Prog, c.Loop, c.Witness)
			} else {
				solo = lint.PermutationCheck(pa.Prog, c.Loop, c.Seed)
				if solo != nil {
					diverged++
				}
			}
			if got, want := errText(shared[i]), errText(solo); got != want {
				t.Errorf("%s: check %d on the loop at %s: shared outcome %q, alone %q", name, i, c.Loop.Pos(), got, want)
			}
		}
	}
	if witnesses == 0 || diverged == 0 {
		t.Fatalf("corpus exercised %d witnesses and %d divergent permutations; want both", witnesses, diverged)
	}
}

// TestSharedBridgeIsolatesCorruptedWitness runs a corrupted witness among
// genuine ones in one shared run: it alone fails, with the text replaying
// it alone gives, and the genuine witnesses still confirm.
func TestSharedBridgeIsolatesCorruptedWitness(t *testing.T) {
	var b strings.Builder
	for r := 0; r < 4; r++ {
		fmt.Fprintf(&b, "do i = 1, 20\n  R%d[i+%d] := R%d[i] * 2\nenddo\n", r, r+1, r)
	}
	pa := analyzeSource(t, b.String())
	var checks []lint.BridgeCheck
	for _, la := range pa.Loops {
		v := lint.CertifyLoop(&lint.Context{Program: pa.Prog, Info: pa.Info, Loop: la})
		if v.Class != lint.VerdictRacy {
			t.Fatalf("loop at %s: verdict %v, want racy", la.Loop.Pos(), v.Class)
		}
		checks = append(checks, lint.BridgeCheck{Loop: la.Loop, Witness: v.Witness})
	}
	bogus := *checks[2].Witness
	bogus.IterLate++ // off the collision distance: cells no longer touch
	bogus.Distance++
	checks[2].Witness = &bogus
	got, runs := lint.SharedBridge(pa.Prog, checks, 1)
	if runs != 2 {
		t.Errorf("shared run took %d interpreter runs, want 2", runs)
	}
	for i, err := range got {
		if i != 2 && err != nil {
			t.Errorf("genuine witness %d failed beside the corrupted one: %v", i, err)
		}
	}
	want := lint.ReplayWitness(pa.Prog, checks[2].Loop, &bogus)
	if want == nil || errText(got[2]) != errText(want) {
		t.Errorf("corrupted witness: shared outcome %q, alone %q", errText(got[2]), errText(want))
	}
}

// raceVerdictMultiset renders the race findings of a vet as a sorted list
// of severity, verdict and bridge outcome, forgetting which loop each
// belongs to.
func raceVerdictMultiset(t *testing.T, src string) []string {
	t.Helper()
	res := lint.Vet("<meta>", src, &lint.Options{Parallelism: 1, Analyzers: []string{"race"}})
	if res.FrontEndFailed {
		t.Fatalf("front end failed: %v\n%s", res.Findings, src)
	}
	var out []string
	for _, f := range res.Findings {
		out = append(out, fmt.Sprintf("%s %s %s%s", f.Severity, f.Detail["verdict"], f.Detail["replay"], f.Detail["permutation"]))
	}
	slices.Sort(out)
	return out
}

// renameArrays renames every array of stmts through rename, in place.
func renameArrays(stmts []ast.Stmt, rename func(string) string) {
	ast.Inspect(stmts, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ArrayRef:
			x.Name = rename(x.Name)
		case *ast.Dim:
			x.Name = rename(x.Name)
		}
		return true
	})
}

// renameScalars renames every scalar of stmts through rename, in place:
// each identifier, the symbolic bound N included, and each induction
// variable.
func renameScalars(stmts []ast.Stmt, rename func(string) string) {
	ast.Inspect(stmts, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			x.Name = rename(x.Name)
		case *ast.DoLoop:
			x.Var = rename(x.Var)
		}
		return true
	})
}

// TestRaceVerdictsMetamorphic checks that reordering independent top-level
// loops, or consistently renaming arrays or scalars, leaves the multiset
// of race verdicts and bridge outcomes unchanged. Every loop's checks
// share the program's interpreter runs, so this guards against state
// leaking from one loop's check into another's. The scalar rename
// reverses the names' sorted order, which is the order the bridge binds
// free scalars in.
func TestRaceVerdictsMetamorphic(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		var loops [][]ast.Stmt
		for k := 0; k < 5; k++ {
			ub := int64(0)
			if (seed+int64(k))%2 == 0 {
				ub = 10
			}
			p := synth.Loop(synth.Params{Seed: seed*10 + int64(k), Stmts: 4, Arrays: 2, MaxDist: 3, CondProb: 0.2, UB: ub})
			if k >= 3 {
				// Odd offsets never meet the even elements: a parallel loop.
				p = parser.MustParse(fmt.Sprintf("do i = 1, %s\n  A0[2*i] := A0[2*i] + A0[2*i+%d]\nenddo\n",
					[]string{"N", "10"}[ub/10], 2*seed+1))
			}
			renameArrays(p.Body, func(n string) string { return fmt.Sprintf("L%d_%s", k, n) })
			loops = append(loops, p.Body)
		}
		render := func(order []int) string {
			var b strings.Builder
			for _, k := range order {
				b.WriteString(ast.StmtsString(loops[k]))
			}
			return b.String()
		}
		base := render([]int{0, 1, 2, 3, 4})
		want := raceVerdictMultiset(t, base)
		if len(want) != 5 {
			t.Fatalf("seed %d: %d race findings, want 5", seed, len(want))
		}
		for _, order := range [][]int{{4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}} {
			if got := raceVerdictMultiset(t, render(order)); !slices.Equal(got, want) {
				t.Errorf("seed %d, loops reordered %v: verdicts %v, want %v", seed, order, got, want)
			}
		}
		for k := range loops {
			renameArrays(loops[k], func(n string) string { return "Z" + strings.ToLower(n) })
		}
		if got := raceVerdictMultiset(t, render([]int{0, 1, 2, 3, 4})); !slices.Equal(got, want) {
			t.Errorf("seed %d, arrays renamed: verdicts %v, want %v", seed, got, want)
		}
		var names []string
		for k := range loops {
			renameScalars(loops[k], func(n string) string {
				if !slices.Contains(names, n) {
					names = append(names, n)
				}
				return n
			})
		}
		slices.Sort(names)
		renamed := map[string]string{}
		for k, n := range names {
			renamed[n] = fmt.Sprintf("v%02d", len(names)-k)
		}
		for k := range loops {
			renameScalars(loops[k], func(n string) string { return renamed[n] })
		}
		if got := raceVerdictMultiset(t, render([]int{0, 1, 2, 3, 4})); !slices.Equal(got, want) {
			t.Errorf("seed %d, scalars renamed %v: verdicts %v, want %v", seed, renamed, got, want)
		}
	}
}
