package parser

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/ast/asttest"
)

// FuzzParse is a native fuzz target: the parser must never panic, every
// reported error must carry a valid source position, every list of the
// tree it returns, partial or not, must have cap == len, and whatever
// parses must print/reparse stably. The seed corpus mixes hand-picked pathological
// inputs with the example programs under examples/. Run with
// `go test -fuzz=FuzzParse ./internal/parser` for continuous fuzzing; the
// seed corpus runs as a normal test.
func FuzzParse(f *testing.F) {
	for _, s := range quotedSeeds(f, "testdata/seeds.txt") {
		f.Add(s)
	}
	for _, path := range exampleSeeds(f) {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatalf("reading seed %s: %v", path, err)
		}
		f.Add(string(b))
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		prog, err := Parse(src)
		if lerr := asttest.ExactLists(prog.Body); lerr != nil {
			t.Fatalf("parse of %q: %v", src, lerr)
		}
		if err != nil {
			var list ErrorList
			if !errors.As(err, &list) || len(list) == 0 {
				t.Fatalf("parse error is not a non-empty ErrorList: %v", err)
			}
			for _, e := range list {
				if !e.Pos.IsValid() {
					t.Fatalf("parse error without a valid position: %q: %v", src, e)
				}
			}
			return
		}
		printed := ast.ProgramString(prog)
		prog2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed program does not reparse: %q: %v", printed, err)
		}
		if got := ast.ProgramString(prog2); got != printed {
			t.Fatalf("print unstable: %q vs %q", printed, got)
		}
	})
}

// quotedSeeds reads a seed file: one Go-quoted string per line, skipping
// blank lines and "//" comments.
func quotedSeeds(f *testing.F, path string) []string {
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatalf("reading seeds: %v", err)
	}
	var out []string
	for n, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		s, err := strconv.Unquote(line)
		if err != nil {
			f.Fatalf("%s:%d: %v", path, n+1, err)
		}
		out = append(out, s)
	}
	return out
}

// exampleSeeds lists the .loop programs under examples/ so the fuzzer
// starts from realistic inputs.
func exampleSeeds(f *testing.F) []string {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.loop"))
	if err != nil {
		f.Fatalf("globbing examples: %v", err)
	}
	if len(paths) == 0 {
		f.Fatal("no example .loop seeds found")
	}
	return paths
}
