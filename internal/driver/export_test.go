package driver

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/sema"
)

// Source is one test program's display name and source text.
type Source struct {
	Name, Src string
}

// ValidExamples returns every examples/*.loop that passes the front end,
// in name order.
func ValidExamples(tb testing.TB) []Source {
	tb.Helper()
	paths, _ := filepath.Glob(filepath.Join("..", "..", "examples", "*.loop"))
	if len(paths) == 0 {
		tb.Fatal("no example programs found")
	}
	sort.Strings(paths)
	var out []Source
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		if _, fail := sema.Load(src, nil); fail != nil {
			continue // some examples are intentionally invalid
		}
		out = append(out, Source{filepath.Base(p), string(src)})
	}
	return out
}

// Restored reports which of a loop's solves hold their graph and rows: its
// own, and each §3.6 re-analysis by induction variable. A value loaded
// from disk holds them only once a consumer has read the loop's facts.
// Callers must not race it with the first such read.
func Restored(la *LoopAnalysis) (own bool, wrt map[string]bool) {
	wrt = make(map[string]bool, len(la.wrt))
	for iv, sv := range la.wrt {
		wrt[iv] = sv.parts != nil
	}
	return la.own.parts != nil, wrt
}

// SameSolves reports whether two loops hold the same solved values: their
// own solve and the §3.6 re-analysis for every enclosing induction
// variable.
func SameSolves(a, b *LoopAnalysis) bool {
	if a.own != b.own || len(a.wrt) != len(b.wrt) {
		return false
	}
	for iv, sv := range a.wrt {
		if b.wrt[iv] != sv {
			return false
		}
	}
	return true
}
