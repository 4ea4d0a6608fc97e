package lint_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/lint"
	"repro/internal/synth"
)

// TestFuelDegradeToUnknown pins the end-to-end degradation contract on the
// paper's Figure 1 program: under a one-unit fuel budget every solve
// exhausts, and vet must (a) classify the loop's parallelism as unknown
// with the budget named in the blocker, (b) claim nothing from the degraded
// solutions — no reuse, deadstore, or uninit findings — and (c) report no
// selfcheck errors, because a truncated solve is exempt from the two-pass
// bound.
func TestFuelDegradeToUnknown(t *testing.T) {
	res := vetExample(t, "../../examples/fig1.loop", &lint.Options{Parallelism: 1, Fuel: 1})
	if res.FrontEndFailed {
		t.Fatal("front end failed")
	}
	var race, banned, selfErr int
	for _, f := range res.Findings {
		switch f.Analyzer {
		case "race":
			race++
			if f.Detail["verdict"] != "unknown" {
				t.Errorf("race verdict = %q, want unknown: %s", f.Detail["verdict"], f.Message)
			}
			if !strings.Contains(f.Message, "fuel budget (1) was exhausted") {
				t.Errorf("race finding does not name the budget: %s", f.Message)
			}
		case "reuse", "deadstore", "uninit":
			banned++
			t.Errorf("degraded solve produced a %s claim: %s", f.Analyzer, f.Message)
		case "selfcheck":
			if f.Severity == diag.Error {
				selfErr++
				t.Errorf("selfcheck error under exhaustion: %s", f.Message)
			}
		}
	}
	if race == 0 {
		t.Error("no race finding — expected an unknown verdict with the fuel blocker")
	}
}

// TestFuelDegradeDeterministic is the 50-run determinism sweep of satellite
// acceptance: with a tiny budget, the rendered vet output over a multi-loop
// program must be byte-identical across parallelism settings and cache
// on/off — exhaustion is part of the deterministic semantics, not a race
// against the scheduler.
func TestFuelDegradeDeterministic(t *testing.T) {
	src := ast.ProgramString(synth.MultiLoopProgram(synth.MultiParams{
		Seed: 11, Loops: 8, StmtsPer: 6, NestEvery: 3, DistinctBodies: 4, UB: 32}))
	parallelisms := []int{1, 0, 4}
	caches := []bool{false, true}

	driver.ResetCache()
	defer driver.ResetCache()
	var want string
	for run := 0; run < 50; run++ {
		opts := &lint.Options{
			Fuel:         3,
			Parallelism:  parallelisms[(run/2)%len(parallelisms)],
			DisableCache: caches[(run/6)%len(caches)],
		}
		res := lint.Vet("fuel.loop", src, opts)
		if res.FrontEndFailed {
			t.Fatal("front end failed")
		}
		var buf bytes.Buffer
		if err := diag.WriteText(&buf, res.File, res.Findings); err != nil {
			t.Fatal(err)
		}
		got := buf.String()
		if run == 0 {
			want = got
			if !strings.Contains(want, "fuel budget (3) was exhausted") {
				t.Fatalf("budget never exhausted — sweep is not exercising degradation:\n%s", want)
			}
			continue
		}
		if got != want {
			t.Fatalf("run %d (parallelism %d, nocache=%v) diverged:\n--- first run ---\n%s\n--- this run ---\n%s",
				run, opts.Parallelism, opts.DisableCache, want, got)
		}
	}
}
