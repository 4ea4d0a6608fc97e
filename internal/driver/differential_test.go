package driver

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dataflow/reference"
	"repro/internal/parser"
	"repro/internal/problems"
	"repro/internal/sema"
)

// TestDriverSolvesMatchOracle holds every (graph, spec) the driver solves on
// the example programs — each loop's four standard problems under its
// derived range facts, and the §3.6 with-respect-to re-analyses of tight
// nests — to the reference oracle, byte for byte, at every fuel budget the
// fuel tests sweep. Each solve is compared as the driver produced it and
// again re-solved with a trace, so every pass is covered too.
func TestDriverSolvesMatchOracle(t *testing.T) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "examples", "*.loop"))
	if len(paths) == 0 {
		t.Fatal("no example programs found")
	}
	sort.Strings(paths)
	compared, wrt := 0, 0
	for _, fuel := range []int64{0, 1, 3, 1 << 16, 1 << 20} {
		ResetCache()
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := parser.ParseBytes(src, nil)
			if err != nil {
				continue // some examples are intentionally invalid
			}
			if prog, err = sema.Normalize(prog); err != nil {
				continue
			}
			pa, err := Analyze(prog, &Options{Specs: problems.StandardSpecs(), NestVectors: true, Fuel: fuel, Parallelism: 1})
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, la := range pa.Loops {
				check := func(label string, results map[string]*dataflow.Result, facts dataflow.RangeOracle) {
					for _, name := range sortedKeys(results) {
						res := results[name]
						label := fmt.Sprintf("%s fuel=%d loop %s %s %s", filepath.Base(path), fuel, la.Loop.Var, label, name)
						opts := &dataflow.Options{Fuel: fuel, Facts: facts}
						if err := reference.Compare(res, reference.Solve(res.Graph, res.Spec, opts)); err != nil {
							t.Errorf("%s: %v", label, err)
						}
						opts.CollectTrace = true
						if err := reference.Compare(dataflow.Solve(res.Graph, res.Spec, opts), reference.Solve(res.Graph, res.Spec, opts)); err != nil {
							t.Errorf("%s (traced): %v", label, err)
						}
						compared++
					}
				}
				check("own", la.own.materialize().results, factsOracle(la.Facts()))
				for _, iv := range sortedKeys(la.wrt) {
					// §3.6 synthetic loops solve fact-free.
					check("wrt "+iv, la.wrt[iv].materialize().results, nil)
					wrt++
				}
			}
		}
	}
	if compared == 0 || wrt == 0 {
		t.Fatalf("compared %d solves (%d with-respect-to): the corpus no longer exercises the driver", compared, wrt)
	}
	ResetCache()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
