package lint

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/sema"
	"repro/internal/token"
)

// VetResult is the outcome of a full source-to-findings pipeline run.
type VetResult struct {
	File string
	// Src is the source text the findings refer to.
	Src      string
	Findings []diag.Finding
	// Analysis is the underlying whole-program analysis; nil when the
	// front end rejected the source.
	Analysis *driver.ProgramAnalysis
	// FrontEndFailed marks a parse, semantic, or internal analysis failure
	// — the source could not be fully analyzed.
	FrontEndFailed bool
	// Suppressed counts findings silenced by //lint:ignore directives;
	// Baselined counts findings silenced by the baseline.
	Suppressed int
	Baselined  int
	// Werror records whether warnings count as errors for ExitCode.
	Werror bool
}

// ExitCode returns the process status under the documented contract:
//
//	0 — the analysis ran and reported no (unsuppressed) error findings
//	1 — the analysis ran and reported error findings (warnings too under
//	    -werror)
//	2 — the front end or the analysis itself failed; findings are
//	    incomplete
//
// Suppressed and baselined findings never affect the exit code.
func (r *VetResult) ExitCode() int {
	if r.FrontEndFailed {
		return 2
	}
	threshold := diag.Error
	if r.Werror {
		threshold = diag.Warning
	}
	for _, f := range r.Findings {
		if !f.Suppressed && f.Severity >= threshold {
			return 1
		}
	}
	return 0
}

// Vet runs the complete pipeline — parse, semantic check, normalization,
// data flow analysis, analyzers, suppressions, baseline — over source
// text. Front-end failures become error findings with analyzer IDs
// "parse" and "sema" (every error is reported, each with its source
// position) and set FrontEndFailed; the analyzers run only on a clean
// front end.
func Vet(file, src string, opts *Options) *VetResult {
	if opts == nil {
		opts = &Options{}
	}
	o := *opts
	o.Src = src
	res := &VetResult{File: file, Src: src, Werror: o.Werror}
	norm, fail := sema.Load([]byte(src), nil)
	if fail != nil {
		analyzer := "sema"
		if fail.Stage == "parse" {
			analyzer = "parse"
		}
		return res.failed(analyzer, fail.Errs)
	}
	findings, pa, err := Run(file, norm, &o)
	if err != nil {
		return res.failed("sema", sema.Diagnostics(err))
	}
	findings = ApplySuppressions(findings, norm.Directives)
	for _, f := range findings {
		if f.Suppressed {
			res.Suppressed++
		}
	}
	res.Baselined = o.Baseline.Apply(findings)
	res.Findings = findings
	res.Analysis = pa
	return res
}

// maxFixRounds bounds the apply/re-analyze loop in Fix. Each round applies
// at least one fix, and every suggested fix eliminates its finding, so the
// loop ordinarily terminates well before the bound.
const maxFixRounds = 8

// FixOutcome summarizes a Fix run.
type FixOutcome struct {
	// Src is the source after all applied fixes.
	Src string
	// Applied is the total number of fixes applied across rounds; Rounds
	// counts the apply/re-analyze iterations that applied at least one.
	Applied int
	Rounds  int
	// Result is the vet result of the final (fixed) source.
	Result *VetResult
}

// Fix repeatedly applies the suggested fixes of vet findings and
// re-analyzes until no applicable fix remains, so a subsequent `vet -fix`
// run is a no-op. Conflicting fixes deferred by one round are picked up by
// the next. The front end failing on the original source stops the run
// with an error; fixes never apply to unanalyzable source.
func Fix(file, src string, opts *Options) (*FixOutcome, error) {
	out := &FixOutcome{Src: src}
	for round := 0; ; round++ {
		res := Vet(file, out.Src, opts)
		out.Result = res
		if res.FrontEndFailed {
			if round == 0 {
				return nil, fmt.Errorf("%s: source does not analyze; not applying fixes", file)
			}
			return nil, fmt.Errorf("%s: applied fixes broke the front end (round %d) — this is a bug", file, round)
		}
		if round >= maxFixRounds {
			break
		}
		fr := diag.ApplyFixes(out.Src, res.Findings)
		if fr.Applied == 0 {
			break
		}
		out.Src = fr.Src
		out.Applied += fr.Applied
		out.Rounds++
	}
	return out, nil
}

// failed records a front-end (or analysis) failure: every error becomes
// an error finding of the analyzer at the error's own position, or at 1:1
// when it has none.
func (r *VetResult) failed(analyzer string, errs []sema.Diagnostic) *VetResult {
	for _, d := range errs {
		pos := d.Pos
		if !pos.IsValid() {
			pos = token.Pos{Line: 1, Col: 1}
		}
		r.Findings = append(r.Findings, diag.Finding{Analyzer: analyzer, Pos: pos, Severity: diag.Error, Message: d.Msg})
	}
	r.FrontEndFailed = true
	diag.Sort(r.Findings)
	return r
}
