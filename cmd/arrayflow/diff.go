package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/ast"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/goimport"
	"repro/internal/sema"
)

// runDiff implements the `arrayflow diff` subcommand: incremental
// re-analysis between two versions of a program. Both versions are
// fingerprinted with the memo cache's 128-bit content address; unchanged
// loops are answered from the cache warmed by the old version's analysis
// (and, with -cache-dir, from the persistent cache across restarts), so an
// edit to one loop of an N-loop program costs one solve, not N.
//
// With -lang loop (default) the arguments are two .loop files. With
// -lang go they are two package patterns (a directory, dir/..., or a .go
// file); every lowered loop nest of each tree becomes one program, and the
// fingerprint match is global, so a loop moved between files still counts
// as unchanged.
//
// Exit status: 0 when no loop changed and none was removed, 1 when changed
// or removed loops exist, 2 when either version fails the front end (or on
// usage errors).
func runDiff(args []string) {
	fs := flag.NewFlagSet("arrayflow diff", flag.ExitOnError)
	lang := fs.String("lang", "loop", "input language: loop (two .loop files) or go (two package patterns)")
	includeTests := fs.Bool("include-tests", false, "with -lang go, also analyze _test.go files")
	workers := fs.Int("workers", 0, "worker goroutines per analysis pass (0 = GOMAXPROCS, 1 = serial)")
	cacheDir := fs.String("cache-dir", "", "persistent solve cache directory: lets the old version's solves come from an earlier process")
	metrics := fs.Bool("metrics", false, "print both passes' analysis metrics to stderr")
	fuel := fs.Int64("fuel", 0, "per-solve fuel budget in flow-application units (0 = derived default)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: arrayflow diff [-lang loop|go] [-include-tests] [-workers n] [-cache-dir dir] [-metrics] [-fuel n] old new")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	if *lang != "loop" && *lang != "go" {
		fmt.Fprintf(os.Stderr, "arrayflow diff: unknown -lang %q (want loop or go)\n", *lang)
		os.Exit(2)
	}

	var oldProgs, newProgs []*ast.Program
	var newNames []string
	if *lang == "go" {
		oldProgs, _ = diffImportGo(fs.Arg(0), *includeTests)
		newProgs, newNames = diffImportGo(fs.Arg(1), *includeTests)
	} else {
		oldProgs = []*ast.Program{diffLoadLoop(fs.Arg(0))}
		newProgs = []*ast.Program{diffLoadLoop(fs.Arg(1))}
		newNames = []string{fs.Arg(1)}
	}

	d, err := driver.DiffPrograms(oldProgs, newProgs, &driver.Options{
		Parallelism: *workers, CacheDir: *cacheDir, Fuel: *fuel})
	if err != nil {
		fmt.Fprintln(os.Stderr, "arrayflow diff:", err)
		os.Exit(2)
	}

	for _, dl := range d.Loops {
		status := "unchanged"
		if dl.Changed {
			status = "changed"
		}
		fmt.Printf("%s:%s: loop %s (depth %d): %s\n", newNames[dl.Prog], dl.Pos, dl.Var, dl.Depth, status)
	}
	fmt.Printf("%d changed, %d unchanged, %d removed; re-solved %d of %d loop solves\n",
		d.Changed, d.Unchanged, d.Removed, d.NewMetrics.CacheMisses, d.NewMetrics.Solves)

	if *metrics {
		fmt.Fprintln(os.Stderr, "-- old version metrics --")
		fmt.Fprint(os.Stderr, d.OldMetrics.Report())
		fmt.Fprintln(os.Stderr, "-- new version metrics --")
		fmt.Fprint(os.Stderr, d.NewMetrics.Report())
	}
	if *cacheDir != "" {
		reportDiskStats("arrayflow diff")
	}
	if d.Changed > 0 || d.Removed > 0 {
		os.Exit(1)
	}
}

// diffLoadLoop reads and front-ends one .loop file for diff, exiting 2 on
// any failure (an unanalyzable version has no meaningful fingerprints).
func diffLoadLoop(path string) *ast.Program {
	src, file, err := readSource(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arrayflow diff:", err)
		os.Exit(2)
	}
	prog := load(file, []byte(src), nil)
	if prog == nil {
		os.Exit(2)
	}
	return prog
}

// diffImportGo lowers one Go package tree into per-loop-nest programs for
// diff, with a display name per program. A pattern that cannot resolve, a
// file that cannot parse, or a unit that cannot normalize exits 2: a
// partially lowered tree would misreport its missing loops as removed.
func diffImportGo(pattern string, includeTests bool) ([]*ast.Program, []string) {
	res, err := goimport.ImportTree(pattern, includeTests)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arrayflow diff:", err)
		os.Exit(2)
	}
	for _, f := range res.Findings() {
		if f.Severity == diag.Error {
			fmt.Fprintf(os.Stderr, "arrayflow diff: %s:%s: %s\n", f.File, f.Pos, f.Message)
			os.Exit(2)
		}
	}
	var progs []*ast.Program
	var names []string
	for _, u := range res.Units() {
		norm, err := sema.Normalize(u.Program)
		if err != nil {
			fmt.Fprintf(os.Stderr, "arrayflow diff: %s:%s: lowered loop failed to normalize: %v\n", u.File, u.Pos, err)
			os.Exit(2)
		}
		progs = append(progs, norm)
		names = append(names, u.File)
	}
	return progs, names
}
