package driver_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/lint"
	"repro/internal/sema"
)

// TestDiskWarmReportRestoresNothing checks that a disk-warm Report is
// answered from what the entries store: after it, no loop's own or §3.6
// solve holds a graph or rows. The analyzers then restore every own solve
// on first read, WRT restores the re-analyses, and both answer as the
// memo-free analysis does.
func TestDiskWarmReportRestoresNothing(t *testing.T) {
	t.Cleanup(driver.ResetCache)
	deferred, wrtSolves := 0, 0
	for _, s := range driver.ValidExamples(t) {
		prog, fail := sema.Load([]byte(s.Src), nil)
		if fail != nil {
			t.Fatalf("%s: %v", s.Name, fail.Lines(s.Name))
		}
		name := s.Name
		lopts := &lint.Options{Parallelism: 1}
		free, err := driver.Analyze(prog, &driver.Options{Specs: lint.Specs(), DisableCache: true, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := renderFindings(t, name, lint.RunOn(name, free, lopts))

		opts := &driver.Options{Specs: lint.Specs(), CacheDir: t.TempDir(), Parallelism: 1}
		driver.ResetCache()
		if _, err := driver.Analyze(prog, opts); err != nil {
			t.Fatal(err)
		}
		driver.ResetCache()
		pa, err := driver.Analyze(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		if pa.Report() != free.Report() {
			t.Errorf("%s: disk-warm report differs from the memo-free one", name)
		}
		for _, la := range pa.Loops {
			own, wrt := driver.Restored(la)
			if own {
				t.Errorf("%s loop %s: Report restored the loop's own solve", name, la.Loop.Var)
			}
			for iv, restored := range wrt {
				if restored {
					t.Errorf("%s loop %s: Report restored the re-analysis with respect to %s", name, la.Loop.Var, iv)
				}
				wrtSolves++
			}
			deferred++
		}

		if got := renderFindings(t, name, lint.RunOn(name, pa, lopts)); got != want {
			t.Errorf("%s: findings on the disk-warm analysis differ from the memo-free ones:\n%s--- want ---\n%s", name, got, want)
		}
		for i, la := range pa.Loops {
			if own, _ := driver.Restored(la); !own {
				t.Errorf("%s loop %s: lint.RunOn left the loop's own solve unrestored", name, la.Loop.Var)
			}
			got, want := la.WRT(), free.Loops[i].WRT()
			for iv := range want {
				if fmt.Sprint(got[iv]) != fmt.Sprint(want[iv]) {
					t.Errorf("%s loop %s: restored reuses with respect to %s differ", name, la.Loop.Var, iv)
				}
			}
			if _, wrt := driver.Restored(la); len(wrt) != len(want) {
				t.Errorf("%s loop %s: %d re-analyses, want %d", name, la.Loop.Var, len(wrt), len(want))
			} else {
				for iv, restored := range wrt {
					if !restored {
						t.Errorf("%s loop %s: WRT did not restore the re-analysis with respect to %s", name, la.Loop.Var, iv)
					}
				}
			}
		}
	}
	if deferred == 0 || wrtSolves == 0 {
		t.Fatalf("checked %d loops and %d re-analyses: the examples no longer exercise the disk path", deferred, wrtSolves)
	}
}

func renderFindings(t *testing.T, name string, fs []diag.Finding) string {
	t.Helper()
	var b strings.Builder
	if err := diag.WriteText(&b, name, fs); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
