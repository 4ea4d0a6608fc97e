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

// vetText renders src's vet findings as text, memo-warm or memo-free.
func vetText(t *testing.T, name, src string, cache bool) string {
	t.Helper()
	res := lint.Vet(name, src, &lint.Options{Parallelism: 1, DisableCache: !cache})
	if res.FrontEndFailed {
		t.Fatalf("%s: front end failed: %v", name, res.Findings)
	}
	var buf bytes.Buffer
	if err := diag.WriteText(&buf, res.File, res.Findings); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTwinLoopsReportTheirOwnPositions pins the memo's position contract:
// two loops with the same content share one memo entry, but each loop's
// findings must carry its own source positions. The second loop's reuse
// findings and race witness must sit on lines 6 and 7, as without the memo.
func TestTwinLoopsReportTheirOwnPositions(t *testing.T) {
	loop := "do i = 1, 10\n  A[i] := A[i-1] + 1\n  B[i] := A[i]\nenddo\n"
	src := loop + loop
	warm := vetText(t, "twin.loop", src, true)
	if cold := vetText(t, "twin.loop", src, false); warm != cold {
		t.Fatalf("memo-warm findings differ from memo-free ones\n-- warm --\n%s-- memo-free --\n%s", warm, cold)
	}
	for _, want := range []string{"twin.loop:6:3: store A[i] at iteration 1", "twin.loop:6:11: info: reuse", "twin.loop:7:11: info: reuse"} {
		if !strings.Contains(warm, want) {
			t.Errorf("findings lack %q:\n%s", want, warm)
		}
	}
}

// TestShiftedCopyReportsItsOwnPositions models a long-lived process (serve,
// or the rounds of vet -fix): after a program is vetted, a copy shifted by
// three lines must report its findings, and target its fixes, at its own
// lines.
func TestShiftedCopyReportsItsOwnPositions(t *testing.T) {
	for _, base := range []string{"fig1", "uninit", "deadstore"} {
		t.Run(base, func(t *testing.T) {
			b, err := os.ReadFile(filepath.Join("..", "..", "examples", base+".loop"))
			if err != nil {
				t.Fatal(err)
			}
			src := string(b)
			vetText(t, base+".loop", src, true)
			shifted := "\n\n\n" + src
			warm := vetText(t, base+".loop", shifted, true)
			if cold := vetText(t, base+".loop", shifted, false); warm != cold {
				t.Fatalf("shifted copy: memo-warm findings differ from memo-free ones\n-- warm --\n%s-- memo-free --\n%s", warm, cold)
			}
			fixWarm, err := lint.Fix(base+".loop", shifted, &lint.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			fixCold, err := lint.Fix(base+".loop", shifted, &lint.Options{Parallelism: 1, DisableCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if fixWarm.Src != fixCold.Src {
				t.Fatalf("shifted copy: memo-warm fixes differ from memo-free ones\n-- warm --\n%s-- memo-free --\n%s", fixWarm.Src, fixCold.Src)
			}
		})
	}
}
