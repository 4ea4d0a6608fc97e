package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// benchSources parses the benchmark's non-test Go files.
func benchSources(t *testing.T) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// TestSurfaceAvoidsPlannedRemovals keeps the benchmark off everything the
// roadmap plans to delete or reshape (the solver engine switch in every
// form, the canonical-key debug hook), so those changes need not touch it.
func TestSurfaceAvoidsPlannedRemovals(t *testing.T) {
	for _, f := range benchSources(t) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if strings.Contains(n.Name, "Engine") || strings.Contains(n.Name, "CanonicalKeys") {
					t.Errorf("benchmark references %s", n.Name)
				}
			case *ast.BasicLit:
				if strings.Contains(strings.ToLower(n.Value), "engine") {
					t.Errorf("benchmark uses the literal %s", n.Value)
				}
			}
			return true
		})
	}
}

// TestNonPublicEntryPointsAreListed checks that ../README.md names every
// internal entry point the benchmark calls, so a change to one of them
// knows it changes the benchmark's surface.
func TestNonPublicEntryPointsAreListed(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, f := range benchSources(t) {
		internal := map[string]bool{}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "repro/internal/") {
				internal[filepath.Base(path)] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && internal[id.Name] {
					used[id.Name+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	if len(used) == 0 {
		t.Fatal("found no internal entry points; the scan is broken")
	}
	var names []string
	for name := range used {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !strings.Contains(string(readme), "`"+name+"`") {
			t.Errorf("README.md does not list the internal entry point %s", name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the benchmark in step:
// the same workloads and the same metric names and units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	for _, c := range []struct {
		name string
		defs []metricDef
		spec []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		var want, got []string
		for _, d := range c.defs {
			want = append(want, d.name+" "+d.unit)
		}
		for _, m := range c.spec {
			got = append(got, m.Name+" "+m.Unit)
		}
		if strings.Join(got, ", ") != strings.Join(want, ", ") {
			t.Errorf("BENCHMARK.json %s:\n %v\nbenchmark reports:\n %v", c.name, got, want)
		}
	}
}
