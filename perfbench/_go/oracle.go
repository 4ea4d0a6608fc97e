package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/diag"
	"repro/internal/lint"
)

// formats are the vet output formats, in the order vet-serve rotates them.
var formats = []string{"text", "json", "sarif"}

// renderVet renders findings exactly as `arrayflow vet -format format`
// prints them.
func renderVet(name, format string, fs []arrayflow.Finding) (string, error) {
	var b strings.Builder
	var err error
	switch format {
	case "json":
		err = arrayflow.WriteFindingsJSON(&b, name, fs)
	case "sarif":
		err = diag.WriteSARIF(&b, name, lint.RuleMetas(), fs)
	default:
		err = arrayflow.WriteFindingsText(&b, name, fs)
	}
	return b.String(), err
}

// vetRef is the reference answer to a vet request: the body in every
// format and the exit-contract value.
type vetRef struct {
	body map[string]string
	exit int
}

// referenceVet computes a vet answer on the serial, memo-disabled
// in-process path, which shares no cache state with the timed path.
func referenceVet(name, src string) (vetRef, error) {
	res := arrayflow.Vet(name, src, &arrayflow.LintOptions{Parallelism: 1, DisableCache: true})
	if res.FrontEndFailed {
		return vetRef{}, fmt.Errorf("%s: front end rejected the program: %v", name, res.Findings)
	}
	ref := vetRef{body: map[string]string{}, exit: res.ExitCode()}
	for _, f := range formats {
		body, err := renderVet(name, f, res.Findings)
		if err != nil {
			return vetRef{}, fmt.Errorf("%s: rendering %s: %v", name, f, err)
		}
		ref.body[f] = body
	}
	return ref, nil
}

// checkGoldens fails unless vet reproduces the checked-in lint goldens for
// every examples/*.loop under root: the text golden of each example, and
// its JSON and SARIF goldens where they exist.
func checkGoldens(root string, vet func(name, src, format string) (string, error)) error {
	paths, err := filepath.Glob(filepath.Join(root, "examples", "*.loop"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no examples/*.loop under %s", root)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		stem := strings.TrimSuffix(filepath.Base(p), ".loop")
		name := "examples/" + filepath.Base(p)
		for _, f := range formats {
			suffix := "." + f
			if f == "text" {
				suffix = ""
			}
			golden := filepath.Join(root, "internal", "lint", "testdata", stem+suffix+".golden")
			want, err := os.ReadFile(golden)
			if os.IsNotExist(err) && f != "text" {
				continue
			}
			if err != nil {
				return err
			}
			got, err := vet(name, string(src), f)
			if err != nil {
				return fmt.Errorf("vet %s -format %s: %v", name, f, err)
			}
			if err := same(golden, string(want), got); err != nil {
				return err
			}
		}
	}
	return nil
}

// fig3Reuses are the five reuses the paper draws from its Figure 1 loop
// (Figure 3, §3.5), in the driver's report order.
var fig3Reuses = []string{
	"use C[i]@n1 reuses C[i + 2] @ distance 2",
	"use C[i]@n2 reuses C[i + 2] @ distance 2",
	"use C[i]@n2 reuses C[i + 2] @ distance 2",
	"use B[i - 1]@n3 reuses B[i] @ distance 1",
	"use C[i + 1]@n4 reuses C[i + 2] @ distance 1",
}

// checkFig3 fails unless the analysis of examples/fig1.loop reports the
// paper's five Figure 3 reuses.
func checkFig3(root string) error {
	src, err := os.ReadFile(filepath.Join(root, "examples", "fig1.loop"))
	if err != nil {
		return err
	}
	prog, err := frontEnd(string(src))
	if err != nil {
		return fmt.Errorf("examples/fig1.loop: %v", err)
	}
	pa, err := arrayflow.AnalyzeProgramOpts(prog, &arrayflow.AnalyzeOptions{Parallelism: 1, DisableCache: true})
	if err != nil {
		return fmt.Errorf("examples/fig1.loop: %v", err)
	}
	var got []string
	for _, la := range pa.Loops {
		for _, r := range la.Reuses() {
			got = append(got, r.String())
		}
	}
	return same("Figure 3 reuses of examples/fig1.loop", strings.Join(fig3Reuses, "\n"), strings.Join(got, "\n"))
}

// frontEnd runs parse → check → normalize through the public API.
func frontEnd(src string) (*arrayflow.Program, error) {
	prog, err := arrayflow.Parse(src)
	if err != nil {
		return nil, err
	}
	if _, err := arrayflow.Check(prog); err != nil {
		return nil, err
	}
	return arrayflow.Normalize(prog)
}

// setupOracles runs the set-up checks every workload shares: the lint
// goldens on the reference vet path and the paper's Figure 3 reuses.
func setupOracles(root string) error {
	err := checkGoldens(root, func(name, src, format string) (string, error) {
		ref, err := referenceVet(name, src)
		if err != nil {
			return "", err
		}
		return ref.body[format], nil
	})
	if err != nil {
		return fmt.Errorf("golden oracle: %w", err)
	}
	if err := checkFig3(root); err != nil {
		return fmt.Errorf("figure 3 oracle: %w", err)
	}
	return nil
}
