package lint_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/lint"
	"repro/internal/parser"
	"repro/internal/poly"
	"repro/internal/rangefacts"
	"repro/internal/sema"
)

// raceVerdicts extracts the non-error race findings of a vet result in
// sorted order as (verdict, bridge) pairs, where bridge is the replay or
// permutation detail ("" for unknown verdicts). Error-severity race
// findings (certification bridge failures) fail the test immediately.
func raceVerdicts(t *testing.T, res *lint.VetResult) [][2]string {
	t.Helper()
	var out [][2]string
	for _, f := range res.Findings {
		if f.Analyzer != "race" {
			continue
		}
		if f.Severity == diag.Error {
			t.Fatalf("certification bridge failure: %s", f)
		}
		v := f.Detail["verdict"]
		bridge := f.Detail["replay"] + f.Detail["permutation"]
		out = append(out, [2]string{v, bridge})
	}
	return out
}

// TestRaceVerdictsPerExample pins the three-way classification of every
// example program and requires each verdict's dynamic certification to
// succeed: racy loops must carry a replay-confirmed witness, parallel
// loops must survive the shuffled-schedule permutation check.
func TestRaceVerdictsPerExample(t *testing.T) {
	want := map[string][][2]string{
		"bounds":           {{"parallel", "verified"}},
		"deadstore":        {{"racy", "confirmed"}},
		"fig1":             {{"racy", "confirmed"}},
		"guarded_parallel": {{"parallel", "verified"}},
		"nest":             {{"parallel", "verified"}, {"racy", "confirmed"}},
		"symbolic_dist":    {{"unknown", ""}},
		"parallel":         {{"parallel", "verified"}, {"racy", "confirmed"}},
		"race_multidim":    {{"racy", "confirmed"}, {"parallel", "verified"}},
		"race_negstride":   {{"racy", "confirmed"}},
		"uninit":           {{"racy", "confirmed"}, {"parallel", "verified"}},
		"unknown":          {{"unknown", ""}, {"unknown", ""}},
	}
	for _, path := range examplePaths(t) {
		name := strings.TrimSuffix(filepath.Base(path), ".loop")
		t.Run(name, func(t *testing.T) {
			exp, ok := want[name]
			if !ok {
				t.Fatalf("example %s has no expected race verdicts; update the table", name)
			}
			res := vetExample(t, path, nil)
			if got := raceVerdicts(t, res); fmt.Sprint(got) != fmt.Sprint(exp) {
				t.Errorf("race verdicts = %v, want %v", got, exp)
			}
		})
	}
}

// TestRaceSyntheticSweep sweeps stride/offset/trip-count combinations of
// the loop  A[a*i + b] := A[a*i] + 1  and checks the certifier against the
// arithmetic ground truth: the pair collides across iterations exactly
// when a divides b with 1 ≤ b/a ≤ ub−1. Every racy verdict must
// replay-confirm its witness and every parallel verdict must pass the
// permutation check (raceVerdicts fails the test on any bridge failure).
func TestRaceSyntheticSweep(t *testing.T) {
	for _, a := range []int64{1, 2, 3} {
		for b := int64(0); b <= 6; b++ {
			for _, ub := range []int64{4, 10} {
				name := fmt.Sprintf("a%d_b%d_ub%d", a, b, ub)
				t.Run(name, func(t *testing.T) {
					src := fmt.Sprintf("dim A[100]\ndo i = 1, %d\n  A[%d*i + %d] := A[%d*i] + 1\nenddo\n", ub, a, b, a)
					res := lint.Vet("<sweep>", src, nil)
					if res.FrontEndFailed {
						t.Fatalf("front end rejected sweep program: %v", res.Findings)
					}
					racy := b%a == 0 && b/a >= 1 && b/a+1 <= ub
					wantClass := "parallel"
					if racy {
						wantClass = "racy"
					}
					got := raceVerdicts(t, res)
					if len(got) != 1 || got[0][0] != wantClass {
						t.Fatalf("verdicts = %v, want one %s", got, wantClass)
					}
					if racy && got[0][1] != "confirmed" {
						t.Errorf("racy witness not replay-confirmed: %v", got[0])
					}
					if !racy && got[0][1] != "verified" {
						t.Errorf("parallel verdict not permutation-verified: %v", got[0])
					}
					if racy {
						// The minimal witness distance is exactly b/a.
						for _, f := range res.Findings {
							if f.Analyzer == "race" && f.Detail["verdict"] == "racy" {
								if want := fmt.Sprintf("%d", b/a); f.Detail["distance"] != want {
									t.Errorf("witness distance = %s, want %s", f.Detail["distance"], want)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestRangefactsVerdictDeterminism renders the race findings of the two
// examples whose verdicts depend on derived range facts — the certified
// nest and the guard-resolved symbolic offset — 50 times across
// parallelism, cache, and fuel settings, and requires byte-for-byte
// identical output: a facts-assisted proof must not depend on scheduling,
// memoization, or a (sufficient) budget.
func TestRangefactsVerdictDeterminism(t *testing.T) {
	fuels := []int64{0, 1 << 16, 1 << 20}
	for _, base := range []string{"nest", "guarded_parallel"} {
		t.Run(base, func(t *testing.T) {
			path := filepath.Join("..", "..", "examples", base+".loop")
			render := func(opts *lint.Options) []byte {
				res := vetExample(t, path, opts)
				var buf bytes.Buffer
				for _, f := range res.Findings {
					if f.Analyzer == "race" {
						fmt.Fprintf(&buf, "%s detail=%v related=%v\n", f, f.Detail, f.Related)
					}
				}
				return buf.Bytes()
			}
			want := render(&lint.Options{Parallelism: 1, DisableCache: true})
			if len(want) == 0 {
				t.Fatal("no race findings rendered")
			}
			if !bytes.Contains(want, []byte("provably parallel")) {
				t.Fatalf("facts-assisted example lost its parallel proof:\n%s", want)
			}
			for run := 0; run < 50; run++ {
				opts := &lint.Options{
					Parallelism:  1 + run%8,
					DisableCache: run%2 == 0,
					Fuel:         fuels[run%len(fuels)],
				}
				if got := render(opts); !bytes.Equal(got, want) {
					t.Fatalf("run %d (%+v) diverged\n-- got --\n%s-- want --\n%s", run, opts, got, want)
				}
			}
		})
	}
}

// TestFabricatedFactFailsPermutation is the negative control of the
// facts-assisted certification: an assumed fact that is false on the probe
// inputs (k ≥ n, while the loop actually runs with k < n) makes the static
// side claim a parallel loop that really races, and the shuffled-schedule
// check must catch the lie as a bridge-failure error finding.
func TestFabricatedFactFailsPermutation(t *testing.T) {
	src := "dim X[100]\ndo i = 1, n\n  X[i] := X[i+k] + 1\nenddo\n"
	fabricated := []rangefacts.Fact{
		rangefacts.NonNeg(poly.Sym("k").Sub(poly.Sym("n")), "fabricated"),
	}
	res := lint.Vet("<fabricated>", src, &lint.Options{
		Analyzers: []string{"race"}, Parallelism: 1, Assume: fabricated,
	})
	var bridgeFailure, parallel bool
	for _, f := range res.Findings {
		if f.Analyzer != "race" {
			continue
		}
		if f.Severity == diag.Error && f.Detail["permutation"] == "diverged" {
			bridgeFailure = true
		}
		if f.Detail["verdict"] == "parallel" {
			parallel = true
		}
	}
	if !parallel {
		t.Fatal("fabricated fact did not produce the parallel claim the control needs")
	}
	if !bridgeFailure {
		t.Fatal("permutation check accepted a verdict built on a false assumption")
	}

	// The sound counterpart: the same comparison supplied by a real guard
	// is vacuously true on any input that reaches the loop, so the verdict
	// survives the dynamic bridge.
	guarded := "dim X[100]\nif k >= n then\n" + "do i = 1, n\n  X[i] := X[i+k] + 1\nenddo\nendif\n"
	res = lint.Vet("<guarded>", guarded, &lint.Options{Analyzers: []string{"race"}, Parallelism: 1})
	for _, f := range res.Findings {
		if f.Analyzer == "race" && f.Severity == diag.Error {
			t.Fatalf("guard-derived fact failed the dynamic bridge: %s", f)
		}
	}
}

// certContext builds a lint.Context for the first loop of src, the same
// way the analyzer pipeline does, so the static and dynamic halves of the
// certification can be exercised directly.
func certContext(t *testing.T, src string) *lint.Context {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	norm, err := sema.Normalize(prog)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	pa, err := driver.Analyze(norm, &driver.Options{Specs: lint.Specs(), Parallelism: 1})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if len(pa.Loops) == 0 {
		t.Fatal("no loops analyzed")
	}
	return &lint.Context{
		File:    "<cert>",
		Program: norm,
		Info:    pa.Info,
		Loop:    pa.Loops[0],
	}
}

// TestReplayRejectsBogusWitness is the negative control of the dynamic
// bridge: corrupting a genuine witness (shifting the late iteration off
// the colliding distance) must make the interpreter replay fail. Without
// this, a replay that vacuously "confirms" everything would pass every
// positive test.
func TestReplayRejectsBogusWitness(t *testing.T) {
	c := certContext(t, "dim A[64]\ndo i = 1, 20\n  A[i+2] := A[i] * 2\nenddo\n")
	v := lint.CertifyLoop(c)
	if v.Class != lint.VerdictRacy || v.Witness == nil {
		t.Fatalf("verdict = %v, want racy with witness", v.Class)
	}
	if err := lint.ReplayWitness(c.Program, c.Loop.Loop, v.Witness); err != nil {
		t.Fatalf("genuine witness must replay: %v", err)
	}
	bogus := *v.Witness
	bogus.IterLate++ // off the collision distance: cells no longer touch
	bogus.Distance++
	if err := lint.ReplayWitness(c.Program, c.Loop.Loop, &bogus); err == nil {
		t.Error("corrupted witness replayed without error")
	}
}

// TestPermutationCheckCatchesRacyLoop is the negative control of the
// parallel certification: running a provably racy loop through the
// shuffled-schedule check must report a divergence.
func TestPermutationCheckCatchesRacyLoop(t *testing.T) {
	c := certContext(t, "dim A[64]\ndo i = 1, 20\n  A[i+1] := A[i] + A[i+1]\nenddo\n")
	if err := lint.PermutationCheck(c.Program, c.Loop.Loop, 0x5eed); err == nil {
		t.Error("permutation check passed on a racy loop")
	}
}

// TestRaceWitnessDeterminism renders the race findings of the witness
// examples 50 times across parallelism and cache settings and requires
// byte-for-byte identical output: witnesses must not depend on scheduling
// or memoization.
func TestRaceWitnessDeterminism(t *testing.T) {
	for _, base := range []string{"race_multidim", "race_negstride", "fig1"} {
		t.Run(base, func(t *testing.T) {
			path := filepath.Join("..", "..", "examples", base+".loop")
			render := func(opts *lint.Options) []byte {
				res := vetExample(t, path, opts)
				var buf bytes.Buffer
				for _, f := range res.Findings {
					if f.Analyzer == "race" {
						fmt.Fprintf(&buf, "%s detail=%v related=%v\n", f, f.Detail, f.Related)
					}
				}
				return buf.Bytes()
			}
			want := render(&lint.Options{Parallelism: 1, DisableCache: true})
			if len(want) == 0 {
				t.Fatal("no race findings rendered")
			}
			for run := 0; run < 50; run++ {
				opts := &lint.Options{
					Parallelism:  1 + run%8,
					DisableCache: run%2 == 0,
				}
				if got := render(opts); !bytes.Equal(got, want) {
					t.Fatalf("run %d (%+v) diverged\n-- got --\n%s-- want --\n%s", run, opts, got, want)
				}
			}
		})
	}
}

// TestWitnessReplayBeyondStepBudget pins the replay's step-budget bound: a
// racy witness at iteration 5·10⁹+1 can never replay within the
// interpreter's step budget, so vet must refuse it up front instead of
// probing ever larger loop bounds, and still report the same verdicts and
// severities — a racy warning whose replay failed plus the error-severity
// bridge failure naming the budget.
func TestWitnessReplayBeyondStepBudget(t *testing.T) {
	for _, src := range []string{
		"do i = 1, n\n  A[i+5000000000] := A[i] + 1\nenddo\n",
		"do i = 1, n\n  A[i] := A[i+5000000000] + 1\nenddo\n",
	} {
		start := time.Now()
		res := lint.Vet("<far>", src, &lint.Options{Parallelism: 1, Analyzers: []string{"race"}})
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("vet took %v; the replay must give up without probing", elapsed)
		}
		var racy, bridge int
		for _, f := range res.Findings {
			switch {
			case f.Severity == diag.Warning && f.Detail["verdict"] == "racy" && f.Detail["replay"] == "failed":
				racy++
			case f.Severity == diag.Error && strings.Contains(f.Message, "step replay budget"):
				bridge++
			}
		}
		if racy != 1 || bridge != 1 {
			t.Errorf("%q: %d failed-replay racy warnings and %d budget bridge failures, want 1 and 1: %v",
				src, racy, bridge, res.Findings)
		}
	}
}

// TestSelfReadLowerBoundRejected: do j = j, N, -1 reads j before the loop
// assigns it, which normalization cannot keep apart from the normalized j.
// It once normalized to a loop storing only A[1], so vet reported a false
// racy warning plus a bridge failure; the front end now refuses it.
func TestSelfReadLowerBoundRejected(t *testing.T) {
	res := lint.Vet("self.loop", "do j = j, N, -1\n  A[j] := 0\nenddo\n", &lint.Options{Parallelism: 1, DisableCache: true})
	if !res.FrontEndFailed || res.ExitCode() != 2 {
		t.Fatalf("want a front-end failure (exit 2), got exit %d: %v", res.ExitCode(), res.Findings)
	}
	want := "1:8: error: sema: loop lower bound reads its own induction variable j"
	if len(res.Findings) != 1 || res.Findings[0].String() != want {
		t.Fatalf("findings = %v, want only %q", res.Findings, want)
	}
}

// TestBridgeBindsScalarsAssignedLater: j bounds the first loop and is the
// induction variable of a later one. The bridge once took every assigned
// name for a non-input, left j unbound (0), and could not drive the first
// loop to its witness's second iteration, reporting a bridge failure.
func TestBridgeBindsScalarsAssignedLater(t *testing.T) {
	src := "do i = 1, j, 2\n  A[0] := i\nenddo\ndo j = 1, N\n  B[j] := 0\nenddo\n"
	res := lint.Vet("later.loop", src, &lint.Options{Parallelism: 1, DisableCache: true})
	got := raceVerdicts(t, res)
	want := [][2]string{{"racy", "confirmed"}, {"parallel", "verified"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("race verdicts = %v, want %v", got, want)
	}
	if res.ExitCode() != 0 {
		t.Fatalf("exit %d, want 0: %v", res.ExitCode(), res.Findings)
	}
}

// TestNestWitnessEarlyReadsItsOwnInnerValues pins the witness of a nest
// whose collision runs from the pair's second reference to its first: the
// load of A[4·i + j + 9] at i = 1, j' = 1 reads A[14], which the store
// to A[4·i + j] writes at i = 3, j = 2. The colliding cell is the early
// reference's, evaluated at the early side's own inner values.
func TestNestWitnessEarlyReadsItsOwnInnerValues(t *testing.T) {
	pa := analyzeSource(t, "do i = 1, 10\n  do j = 1, 4\n    A[4*i + j] := A[4*i + j + 9] + 1\n  enddo\nenddo\n")
	var outer *driver.LoopAnalysis
	for _, la := range pa.Loops {
		if la.Loop.Var == "i" {
			outer = la
		}
	}
	v := lint.CertifyLoop(&lint.Context{Program: pa.Prog, Info: pa.Info, Loop: outer})
	if v.Class != lint.VerdictRacy {
		t.Fatalf("verdict %v, want racy", v.Class)
	}
	w := v.Witness
	got := fmt.Sprintf("%s %s at %d, %s %s at %d, distance %d, cell %s",
		w.Kind, w.FromText, w.IterEarly, map[bool]string{true: "store", false: "load"}[w.ToStore], w.ToText, w.IterLate, w.Distance, w.CellString())
	want := "anti A[4 * i + j + 9] at 1, store A[4 * i + j] at 3, distance 2, cell A[14]"
	if got != want || w.FromStore {
		t.Fatalf("witness %q, want %q", got, want)
	}
	if err := lint.ReplayWitness(pa.Prog, outer.Loop, w); err != nil {
		t.Fatalf("witness did not replay: %v", err)
	}
}
