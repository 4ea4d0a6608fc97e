package lint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/lint"
)

// vetText renders src's vet findings as text and as JSON (related
// positions, details and fix edits included), memo-warm or memo-free, on
// the given number of workers.
func vetText(t *testing.T, name, src string, cache bool, workers int) string {
	t.Helper()
	res := lint.Vet(name, src, &lint.Options{Parallelism: workers, DisableCache: !cache})
	if res.FrontEndFailed {
		t.Fatalf("%s: front end failed: %v", name, res.Findings)
	}
	var buf bytes.Buffer
	if err := diag.WriteText(&buf, res.File, res.Findings); err != nil {
		t.Fatal(err)
	}
	if err := diag.WriteJSON(&buf, res.File, res.Findings); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTwinLoopsReportTheirOwnPositions pins the memo's position contract:
// two loops with the same content share one memo entry, but each loop's
// findings must carry its own source positions, as without the memo. In
// the second copy of each program: the reuse findings and race witness on
// lines 6 and 7; a nest witness, whose references' contexts come from the
// loop's own AST; and an inner loop bound's array read, a blocker at its
// own position.
func TestTwinLoopsReportTheirOwnPositions(t *testing.T) {
	for _, tc := range []struct{ loop, want string }{
		{"do i = 1, 10\n  A[i] := A[i-1] + 1\n  B[i] := A[i]\nenddo\n",
			"twin.loop:6:3: store A[i] at iteration 1|twin.loop:6:11: info: reuse|twin.loop:7:11: info: reuse"},
		{"do i = 1, 10\n  do j = 1, 4\n    A[4*i + j] := A[4*i + j + 9] + 1\n  enddo\nenddo\n",
			"twin.loop:6:1: warning: race: loop over i is provably racy|twin.loop:8:19: load A[4 * i + j + 9] at iteration 1"},
		{"do i = 1, 10\n  do j = 1, B[i]\n    C[j] := 0\n  enddo\nenddo\n",
			"twin.loop:7:13: the bound of the inner loop over j reads B[i]"},
	} {
		src := tc.loop + tc.loop
		warm := vetText(t, "twin.loop", src, true, 1)
		if cold := vetText(t, "twin.loop", src, false, 1); warm != cold {
			t.Fatalf("memo-warm findings differ from memo-free ones\n-- warm --\n%s-- memo-free --\n%s", warm, cold)
		}
		for _, want := range strings.Split(tc.want, "|") {
			if !strings.Contains(warm, want) {
				t.Errorf("findings lack %q:\n%s", want, warm)
			}
		}
	}
}

// TestShiftedCopyReportsItsOwnPositions models a long-lived process (serve,
// or the rounds of vet -fix): after a program is vetted, a copy shifted by
// three lines, and a copy holding the program twice (twins within one
// program), must report their findings, and target their fixes, at their
// own lines, as without the memo. It covers every examples/*.loop, and
// vets memo-warm on four workers, so twins share one graph concurrently.
func TestShiftedCopyReportsItsOwnPositions(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.loop"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	for _, path := range paths {
		base := strings.TrimSuffix(filepath.Base(path), ".loop")
		t.Run(base, func(t *testing.T) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src := string(b)
			vetText(t, base+".loop", src, true, 4)
			for _, v := range []struct{ name, src string }{
				{"shifted copy", "\n\n\n" + src},
				{"doubled copy", src + src},
			} {
				warm := vetText(t, base+".loop", v.src, true, 4)
				if cold := vetText(t, base+".loop", v.src, false, 1); warm != cold {
					t.Fatalf("%s: memo-warm findings differ from memo-free ones\n-- warm --\n%s-- memo-free --\n%s", v.name, warm, cold)
				}
				fixWarm, errWarm := lint.Fix(base+".loop", v.src, &lint.Options{Parallelism: 4})
				fixCold, errCold := lint.Fix(base+".loop", v.src, &lint.Options{Parallelism: 1, DisableCache: true})
				if errWarm != nil || errCold != nil {
					t.Fatalf("%s: memo-warm fix error %v, memo-free %v", v.name, errWarm, errCold)
				}
				if fixWarm.Src != fixCold.Src {
					t.Fatalf("%s: memo-warm fixes differ from memo-free ones\n-- warm --\n%s-- memo-free --\n%s", v.name, fixWarm.Src, fixCold.Src)
				}
			}
		})
	}
}
