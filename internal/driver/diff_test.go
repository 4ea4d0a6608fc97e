package driver

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/sema"
)

// diffSource builds an N-loop program where loop k's body is editable.
func diffSource(n int, edited int, editedBody string) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		v := string(rune('a' + i))
		b.WriteString("do " + v + " = 1, 100\n")
		if i == edited {
			b.WriteString("  " + editedBody + "\n")
		} else {
			b.WriteString("  A" + v + "[" + v + "+1] := A" + v + "[" + v + "] + " + v + "\n")
		}
		b.WriteString("enddo\n")
	}
	return b.String()
}

func TestDiffOneOfNChanged(t *testing.T) {
	const n = 8
	oldProg := parser.MustParse(diffSource(n, -1, ""))
	newProg := parser.MustParse(diffSource(n, 3, "Ad[d+2] := Ad[d] + Ad[d-1]"))

	ResetCache()
	d, err := DiffPrograms([]*ast.Program{oldProg}, []*ast.Program{newProg}, &Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Changed != 1 || d.Unchanged != n-1 || d.Removed != 1 {
		t.Fatalf("changed/unchanged/removed = %d/%d/%d, want 1/%d/1", d.Changed, d.Unchanged, d.Removed, n-1)
	}
	// The core incremental claim, asserted on the driver's own metrics: the
	// new version's analysis re-solved exactly the edited loop; every other
	// solve came out of the cache warmed by the old version.
	if d.NewMetrics.CacheMisses != 1 {
		t.Errorf("new-version CacheMisses = %d, want 1 (only the edited loop re-solved)", d.NewMetrics.CacheMisses)
	}
	if d.NewMetrics.CacheHits != n-1 {
		t.Errorf("new-version CacheHits = %d, want %d", d.NewMetrics.CacheHits, n-1)
	}
	// Per-loop statuses line up with the edit site (loops of equal depth
	// keep source order in analysis order).
	for _, dl := range d.Loops {
		wantChanged := dl.Var == "d"
		if dl.Changed != wantChanged {
			t.Errorf("loop %s: Changed = %v, want %v", dl.Var, dl.Changed, wantChanged)
		}
	}
}

func TestDiffNoChanges(t *testing.T) {
	src := diffSource(5, -1, "")
	ResetCache()
	d, err := DiffPrograms(
		[]*ast.Program{parser.MustParse(src)},
		[]*ast.Program{parser.MustParse(src)},
		&Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Changed != 0 || d.Removed != 0 || d.Unchanged != 5 {
		t.Errorf("changed/unchanged/removed = %d/%d/%d, want 0/5/0", d.Changed, d.Unchanged, d.Removed)
	}
	if d.NewMetrics.CacheMisses != 0 {
		t.Errorf("identical versions re-solved %d loops, want 0", d.NewMetrics.CacheMisses)
	}
}

func TestDiffLoopMovedAcrossPrograms(t *testing.T) {
	// A loop moved from one program to another (same fingerprint) counts as
	// unchanged: the match is global, not positional.
	loopA := "do i = 1, 50\n  P[i+1] := P[i]\nenddo\n"
	loopB := "do j = 1, 60\n  Q[j+1] := Q[j] + 1\nenddo\n"
	ResetCache()
	d, err := DiffPrograms(
		[]*ast.Program{parser.MustParse(loopA), parser.MustParse(loopB)},
		[]*ast.Program{parser.MustParse(loopB), parser.MustParse(loopA)},
		&Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Changed != 0 || d.Unchanged != 2 || d.Removed != 0 {
		t.Errorf("changed/unchanged/removed = %d/%d/%d, want 0/2/0", d.Changed, d.Unchanged, d.Removed)
	}
}

func TestDiffWithPersistentCache(t *testing.T) {
	// Old analyzed in one "process" (memory dropped afterwards), new in the
	// next: the persistent cache carries the unchanged solves across.
	dir := t.TempDir()
	const n = 6
	oldProg := parser.MustParse(diffSource(n, -1, ""))
	newProg := parser.MustParse(diffSource(n, 2, "Ac[c+3] := Ac[c]"))
	opts := &Options{Parallelism: 1, CacheDir: dir}

	ResetCache()
	if _, err := Analyze(oldProg, opts); err != nil {
		t.Fatal(err)
	}
	ResetCache() // restart
	d, err := DiffPrograms([]*ast.Program{oldProg}, []*ast.Program{newProg}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Changed != 1 {
		t.Fatalf("Changed = %d, want 1", d.Changed)
	}
	// The old pass warm-started from disk instead of re-solving.
	if d.OldMetrics.DiskHits != n {
		t.Errorf("old pass DiskHits = %d, want %d", d.OldMetrics.DiskHits, n)
	}
	if d.NewMetrics.CacheMisses != 1 {
		t.Errorf("new pass CacheMisses = %d, want 1", d.NewMetrics.CacheMisses)
	}
}

// TestDiffSeesLoopContext keeps a loop's text byte-identical between the
// versions and edits only its context. An enclosing guard that feeds the
// loop's range facts, or the dim size of the 2-D array it indexes, changes
// its solve: the loop is Changed and costs exactly one solve. An unrelated
// statement leaves it Unchanged. The loops are flat because in a tight nest
// the §3.6 re-analysis adds a solve of its own.
func TestDiffSeesLoopContext(t *testing.T) {
	guarded, err := os.ReadFile(filepath.Join("..", "..", "examples", "guarded_parallel.loop"))
	if err != nil {
		t.Fatal(err)
	}
	const flat = "do i = 1, 10\n  A[i, 3] := A[i, 4] + 1\nenddo\n"
	for _, tc := range []struct {
		name, old, new string
		changed        bool
	}{
		{"guard", string(guarded), strings.Replace(string(guarded), "k >= 64", "k >= 8", 1), true},
		{"dim", "dim A[10, 20]\n" + flat, "dim A[10, 30]\n" + flat, true},
		{"unrelated statement", "dim A[10, 20]\nB[1] := 0\n" + flat, "dim A[10, 20]\nB[1] := 7\n" + flat, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.old == tc.new {
				t.Fatal("the versions are identical")
			}
			var progs [2]*ast.Program
			for i, src := range []string{tc.old, tc.new} {
				prog, fail := sema.Load([]byte(src), nil)
				if fail != nil {
					t.Fatal(fail.Lines("src"))
				}
				progs[i] = prog
			}
			ResetCache()
			d, err := DiffPrograms(progs[:1], progs[1:], &Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			if tc.changed {
				want = 1
			}
			if d.Changed != want || d.Unchanged != 1-want || d.NewMetrics.CacheMisses != d.Changed {
				t.Errorf("changed/unchanged = %d/%d with %d new-version misses, want %d/%d with %d",
					d.Changed, d.Unchanged, d.NewMetrics.CacheMisses, want, 1-want, want)
			}
		})
	}
}

func TestDiffRejectsDisableCache(t *testing.T) {
	_, err := DiffPrograms(nil, nil, &Options{DisableCache: true})
	if err == nil {
		t.Fatal("DiffPrograms with DisableCache succeeded, want error")
	}
}
