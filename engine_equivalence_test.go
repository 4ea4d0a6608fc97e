// Engine equivalence over the example corpus: the solver must be
// observationally indistinguishable from the executable specification
// (internal/dataflow/reference) on every checked-in program, for every one
// of the paper's four problems — tuple tables, every traced pass, and the
// solver metrics.
package arrayflow_test

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	arrayflow "repro"
	"repro/internal/ast"
	"repro/internal/dataflow"
	"repro/internal/dataflow/reference"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/goimport"
	"repro/internal/ir"
	"repro/internal/lint"
	"repro/internal/problems"
)

// exampleLoops loads every examples/*.loop source.
func exampleLoops(t *testing.T) map[string]string {
	t.Helper()
	paths, err := filepath.Glob("examples/*.loop")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	srcs := make(map[string]string, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(b)
	}
	return srcs
}

// TestEngineEquivalenceExamples solves all four problems on every loop of
// every example program with the solver and the oracle and compares the
// rendered tuple tables, every traced pass, and the work counters byte for
// byte.
func TestEngineEquivalenceExamples(t *testing.T) {
	for name, src := range exampleLoops(t) {
		prog := arrayflow.MustParse(src)
		var loops []*ast.DoLoop
		ast.Inspect(prog.Body, func(n ast.Node) bool {
			if dl, ok := n.(*ast.DoLoop); ok {
				loops = append(loops, dl)
			}
			return true
		})
		for li, loop := range loops {
			g, err := ir.Build(loop, nil)
			if err != nil {
				t.Fatalf("%s loop %d: %v", name, li, err)
			}
			specs := problems.StandardSpecs()
			opts := &dataflow.Options{CollectTrace: true}
			packed := dataflow.SolveAll(g, specs, opts)
			for i, spec := range specs {
				if err := reference.Compare(packed[i], reference.Solve(g, spec, opts)); err != nil {
					t.Errorf("%s loop %d %s: %v", name, li, spec.Name, err)
				}
			}
		}
	}
}

// TestMemoCacheAcrossFrontEnds checks the global solve cache treats the
// two front ends as one namespace keyed by loop content: a nest reaching
// the driver through the Go importer hits the entries populated by the
// identical mini-language program, and an identical loop body over arrays
// with different declared dims fingerprints differently (dim signatures
// are part of the key), so the cache can never serve one shape's solution
// for the other.
func TestMemoCacheAcrossFrontEnds(t *testing.T) {
	// A 2-D wavefront over a constant array: multi-subscript references are
	// the case where declared dims enter the memo key.
	goSrc := func(n int) string {
		return `package p

func Wavefront(m *[` + strconv.Itoa(n) + `][` + strconv.Itoa(n) + `]int, n int) {
	for i := 1; i < n; i++ {
		for j := 1; j < n; j++ {
			m[i][j] = m[i-1][j] + m[i][j-1]
		}
	}
}
`
	}

	// Lower the Go form once and render its mini-language text: the exact
	// program the importer hands the analyzers.
	res, err := goimport.ImportSource("w.go", []byte(goSrc(6)))
	if err != nil {
		t.Fatal(err)
	}
	units := res.Units()
	if len(units) != 1 {
		t.Fatalf("got %d units, want 1", len(units))
	}
	miniText := ast.ProgramString(units[0].Program)

	opts := func() *lint.Options { return &lint.Options{Parallelism: 1} }
	arrayflow.ResetAnalysisCache()

	// Pass 1: the mini front end populates the cache.
	miniRes := lint.Vet("w.loop", miniText, opts())
	if miniRes.FrontEndFailed {
		t.Fatalf("mini front end failed on rendered text:\n%s", miniText)
	}
	_, h0, m0 := driver.CacheStats()

	// Pass 2: the Go front end on the identical nest must be pure cache
	// hits — same fingerprints, zero new misses.
	goRes := goimport.VetSource("w.go", []byte(goSrc(6)), opts())
	if goRes.FrontEndFailed {
		t.Fatalf("go front end failed: %v", goRes.Findings)
	}
	_, h1, m1 := driver.CacheStats()
	if m1 != m0 {
		t.Errorf("go front end added %d cache misses on an identical nest (fingerprints diverge across front ends)", m1-m0)
	}
	if h1 <= h0 {
		t.Errorf("go front end recorded no cache hits (hits %d -> %d)", h0, h1)
	}

	// The two front ends must also agree on every verdict.
	verdicts := func(fs []diag.Finding) []string {
		var out []string
		for _, f := range fs {
			if v := f.Detail["verdict"]; v != "" {
				out = append(out, f.Analyzer+" "+v)
			}
		}
		sort.Strings(out)
		return out
	}
	mv, gv := verdicts(miniRes.Findings), verdicts(goRes.Findings)
	if len(mv) == 0 || len(mv) != len(gv) {
		t.Fatalf("verdict sets differ in size: mini %v, go %v", mv, gv)
	}
	for i := range mv {
		if mv[i] != gv[i] {
			t.Errorf("verdict %d differs: mini %q, go %q", i, mv[i], gv[i])
		}
	}

	// Pass 3: the same loop text over a differently-dimensioned array is a
	// different problem; its fingerprints must NOT hit pass 1/2 entries.
	_, h2, m2 := driver.CacheStats()
	bigger := goimport.VetSource("w.go", []byte(goSrc(7)), opts())
	if bigger.FrontEndFailed {
		t.Fatalf("go front end failed on resized array: %v", bigger.Findings)
	}
	_, h3, m3 := driver.CacheStats()
	if h3 != h2 {
		t.Errorf("resized array hit the smaller array's cache entries (%d hits) — dims are missing from the key", h3-h2)
	}
	if m3 <= m2 {
		t.Errorf("resized array added no cache misses (misses %d -> %d)", m2, m3)
	}
}
