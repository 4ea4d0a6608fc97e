package lint_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/lint"
)

// -update regenerates the golden files from current analyzer output:
//
//	go test ./internal/lint -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

func examplePaths(t testing.TB) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.loop"))
	if err != nil {
		t.Fatalf("globbing examples: %v", err)
	}
	if len(paths) == 0 {
		t.Fatal("no example .loop programs found")
	}
	return paths
}

func vetExample(t testing.TB, path string, opts *lint.Options) *lint.VetResult {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	// The display name is fixed so golden output does not depend on the
	// working directory.
	return lint.Vet("examples/"+filepath.Base(path), string(b), opts)
}

// TestGoldenText pins the exact text findings (content and ordering) for
// every example program.
func TestGoldenText(t *testing.T) {
	for _, path := range examplePaths(t) {
		name := strings.TrimSuffix(filepath.Base(path), ".loop")
		t.Run(name, func(t *testing.T) {
			res := vetExample(t, path, &lint.Options{Parallelism: 1})
			var buf bytes.Buffer
			if err := diag.WriteText(&buf, res.File, res.Findings); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", name+".golden"), buf.Bytes())
		})
	}
}

// TestGoldenJSON pins the JSON rendering for the paper's Figure 1 program.
func TestGoldenJSON(t *testing.T) {
	res := vetExample(t, filepath.Join("..", "..", "examples", "fig1.loop"), &lint.Options{Parallelism: 1})
	var buf bytes.Buffer
	if err := diag.WriteJSON(&buf, res.File, res.Findings); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "fig1.json.golden"), buf.Bytes())
}

// TestGoldenSARIF pins the SARIF 2.1.0 log for every example program —
// the exact artifact `arrayflow vet -format sarif` uploads to code
// scanning, including rule metadata, fingerprints, fixes, and details.
func TestGoldenSARIF(t *testing.T) {
	for _, path := range examplePaths(t) {
		name := strings.TrimSuffix(filepath.Base(path), ".loop")
		t.Run(name, func(t *testing.T) {
			res := vetExample(t, path, &lint.Options{Parallelism: 1})
			var buf bytes.Buffer
			if err := diag.WriteSARIF(&buf, res.File, lint.RuleMetas(), res.Findings); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", name+".sarif.golden"), buf.Bytes())
		})
	}
}

// TestFixIdempotence runs the fix engine on every example and asserts the
// fixed point: a second Fix over the already-fixed source applies nothing
// and returns byte-identical text, and the fixed source still analyzes.
func TestFixIdempotence(t *testing.T) {
	for _, path := range examplePaths(t) {
		name := strings.TrimSuffix(filepath.Base(path), ".loop")
		t.Run(name, func(t *testing.T) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			file := "examples/" + filepath.Base(path)
			first, err := lint.Fix(file, string(b), nil)
			if err != nil {
				t.Fatalf("first fix pass: %v", err)
			}
			if first.Result.FrontEndFailed {
				t.Fatalf("fixed source does not analyze: %v", first.Result.Findings)
			}
			second, err := lint.Fix(file, first.Src, nil)
			if err != nil {
				t.Fatalf("second fix pass: %v", err)
			}
			if second.Applied != 0 {
				t.Errorf("second pass applied %d fixes; -fix is not idempotent", second.Applied)
			}
			if second.Src != first.Src {
				t.Errorf("second pass changed the source\n-- first --\n%s-- second --\n%s", first.Src, second.Src)
			}
		})
	}
}

// TestFixesEliminateFindings asserts each applied fix removes the finding
// that suggested it: no finding in the fixed source carries the same
// baseline identity as a fixed one from the original run.
func TestFixesEliminateFindings(t *testing.T) {
	for _, path := range examplePaths(t) {
		name := strings.TrimSuffix(filepath.Base(path), ".loop")
		t.Run(name, func(t *testing.T) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			file := "examples/" + filepath.Base(path)
			before := lint.Vet(file, string(b), nil)
			fixable := map[string]bool{}
			for _, f := range before.Findings {
				if len(f.SuggestedFixes) > 0 && !f.Suppressed {
					fixable[diag.BaselineKey(f)] = true
				}
			}
			out, err := lint.Fix(file, string(b), nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(fixable) > 0 && out.Applied == 0 {
				t.Fatalf("%d fixable findings but no fix applied", len(fixable))
			}
			for _, f := range out.Result.Findings {
				if fixable[diag.BaselineKey(f)] {
					t.Errorf("finding survived its own fix: %s", f)
				}
			}
		})
	}
}

// TestGrowDimFixGrowsEveryDeclaration: sema accepts a redeclared array
// when the sizes agree, so the bounds fix grows every dim of the array in
// one fix, a nested one included; growing the first alone would leave a
// mismatched redeclaration the front end rejects.
func TestGrowDimFixGrowsEveryDeclaration(t *testing.T) {
	src := "dim B[100]\ndo i = 1, 100\n  A[i] := B[i+1]\nenddo\nif n > 0 then\n  dim B(100)\nendif\n"
	want := "dim B[101]\ndo i = 1, 100\n  A[i] := B[i+1]\nenddo\nif n > 0 then\n  dim B(101)\nendif\n"
	var fixes []diag.SuggestedFix
	for _, f := range lint.Vet("twice.loop", src, nil).Findings {
		if f.Analyzer == "bounds" {
			fixes = append(fixes, f.SuggestedFixes...)
		}
	}
	if len(fixes) != 1 || len(fixes[0].Edits) != 2 {
		t.Fatalf("want one bounds fix with an edit per declaration, got %+v", fixes)
	}
	out, err := lint.Fix("twice.loop", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Src != want || out.Applied != 1 {
		t.Fatalf("fixed source (%d applied):\n%s\nwant:\n%s", out.Applied, out.Src, want)
	}
	again, err := lint.Fix("twice.loop", out.Src, nil)
	if err != nil || again.Applied != 0 {
		t.Fatalf("second pass: %d applied, error %v", again.Applied, err)
	}
}

func compareGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s\n-- got --\n%s-- want --\n%s", golden, got, want)
	}
}

// TestFig1Findings asserts the headline facts of the Figure 1 run without
// relying on exact formatting: at least five distinct analyzer IDs fire,
// every finding carries a valid position, and the known key findings are
// present.
func TestFig1Findings(t *testing.T) {
	res := vetExample(t, filepath.Join("..", "..", "examples", "fig1.loop"), nil)
	if res.Analysis == nil {
		t.Fatal("front end rejected fig1.loop")
	}
	ids := map[string]bool{}
	for _, f := range res.Findings {
		ids[f.Analyzer] = true
		if !f.Pos.IsValid() {
			t.Errorf("finding without position: %s", f)
		}
	}
	for _, want := range []string{"bounds", "race", "reuse", "selfcheck", "uninit"} {
		if !ids[want] {
			t.Errorf("analyzer %s produced no finding on fig1; got IDs %v", want, ids)
		}
	}
	if len(ids) < 5 {
		t.Errorf("want >= 5 distinct analyzer IDs, got %d (%v)", len(ids), ids)
	}
	if res.ExitCode() != 1 {
		t.Errorf("fig1 has a bounds error; want exit code 1, got %d", res.ExitCode())
	}
}

// TestSelfCheckAllExamples asserts the framework self-check passes (one
// info finding per loop, no error-severity selfcheck findings) on every
// example program.
func TestSelfCheckAllExamples(t *testing.T) {
	for _, path := range examplePaths(t) {
		name := strings.TrimSuffix(filepath.Base(path), ".loop")
		t.Run(name, func(t *testing.T) {
			res := vetExample(t, path, nil)
			if res.Analysis == nil {
				t.Fatalf("front end rejected %s: %v", path, res.Findings)
			}
			passes := 0
			for _, f := range res.Findings {
				if f.Analyzer != "selfcheck" {
					continue
				}
				if f.Severity == diag.Error {
					t.Errorf("self-check violation: %s", f)
				} else {
					passes++
				}
			}
			if want := len(res.Analysis.Loops); passes != want {
				t.Errorf("want %d self-check passes (one per loop), got %d", want, passes)
			}
		})
	}
}

// TestVetDeterminism renders the Figure 1 JSON output 50 times under
// parallel analysis and asserts every run is byte-for-byte identical,
// with and without the memo cache.
func TestVetDeterminism(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "fig1.loop")
	render := func(opts *lint.Options) []byte {
		res := vetExample(t, path, opts)
		var buf bytes.Buffer
		if err := diag.WriteJSON(&buf, res.File, res.Findings); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := render(&lint.Options{Parallelism: 1, DisableCache: true})
	for run := 0; run < 50; run++ {
		opts := &lint.Options{Parallelism: 8, DisableCache: run%2 == 0}
		if got := render(opts); !bytes.Equal(got, want) {
			t.Fatalf("run %d (%+v) diverged\n-- got --\n%s-- want --\n%s", run, opts, got, want)
		}
	}
}

// TestVetFrontEndFindings verifies parse and semantic failures surface as
// positioned error findings with the dedicated analyzer IDs and exit code
// 2 — the "could not analyze" status of the documented contract, distinct
// from exit 1 (analysis ran, findings exist).
func TestVetFrontEndFindings(t *testing.T) {
	cases := []struct {
		name, src, analyzer string
	}{
		{"parse", "do i = 1,\nenddo", "parse"},
		{"parse_multiple", "A[ := 1\nB] := 2", "parse"},
		{"sema", "do i = 1, 10\n  i := 3\nenddo", "sema"},
		{"sema_dim_mismatch", "dim A[10]\nA[1, 2] := 0", "sema"},
		{"sema_dim_size", "dim A[0]", "sema"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := lint.Vet("<test>", tc.src, nil)
			if res.ExitCode() != 2 {
				t.Fatalf("want exit code 2, got %d (findings: %v)", res.ExitCode(), res.Findings)
			}
			if !res.FrontEndFailed {
				t.Error("FrontEndFailed not set")
			}
			if len(res.Findings) == 0 {
				t.Fatal("no findings")
			}
			for _, f := range res.Findings {
				if f.Analyzer != tc.analyzer {
					t.Errorf("finding %s: want analyzer %q", f, tc.analyzer)
				}
				if f.Severity != diag.Error {
					t.Errorf("finding %s: want error severity", f)
				}
				if !f.Pos.IsValid() {
					t.Errorf("finding %s: invalid position", f)
				}
			}
		})
	}
}

// TestEmptyStridedLoopHasNoBoundsFinding: do i = 2, 1, 2 never runs, so
// its reference to A[i] cannot leave A's declared range. Normalization
// must give the loop an upper bound below 1, not a single trip.
func TestEmptyStridedLoopHasNoBoundsFinding(t *testing.T) {
	res := lint.Vet("<test>", "dim A[1]\ndo i = 2, 1, 2\n  A[i] := 0\nenddo\n", nil)
	if res.FrontEndFailed {
		t.Fatalf("front end failed: %v", res.Findings)
	}
	for _, f := range res.Findings {
		if f.Analyzer == "bounds" {
			t.Errorf("unexpected finding on an empty loop: %s", f)
		}
	}
}

// TestAnalyzerRegistry pins the registry's IDs and ordering (documentation
// tables and the -analyzers selector depend on both).
func TestAnalyzerRegistry(t *testing.T) {
	var ids []string
	for _, a := range lint.Analyzers() {
		ids = append(ids, a.ID)
		if a.Doc == "" || a.Problem == "" || a.Run == nil {
			t.Errorf("analyzer %s is missing Doc, Problem, or Run", a.ID)
		}
	}
	want := []string{"bounds", "deadstore", "race", "reuse", "selfcheck", "uninit"}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Errorf("registry IDs = %v, want %v", ids, want)
	}
}

// TestAnalyzerSelection verifies Options.Analyzers restricts the run.
func TestAnalyzerSelection(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "fig1.loop")
	res := vetExample(t, path, &lint.Options{Analyzers: []string{"bounds"}})
	if len(res.Findings) == 0 {
		t.Fatal("bounds-only run produced no findings")
	}
	for _, f := range res.Findings {
		if f.Analyzer != "bounds" {
			t.Errorf("unexpected analyzer %s in bounds-only run", f.Analyzer)
		}
	}
}
