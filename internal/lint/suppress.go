package lint

import (
	"strconv"

	"repro/internal/diag"
	"repro/internal/token"
)

// ApplySuppressions marks findings matched by //lint:ignore directives as
// suppressed. A directive suppresses findings of the named analyzers that
// are anchored on the directive's own line (trailing comment) or on the
// line immediately below it (comment above the statement). Front-end
// findings ("parse", "sema") cannot be suppressed — broken source must
// stay loud. Suppressed findings are kept, flagged, and annotated with the
// directive's reason so SARIF output can carry an inSource suppression.
func ApplySuppressions(fs []diag.Finding, dirs []token.Directive) []diag.Finding {
	if len(dirs) == 0 {
		return fs
	}
	for i := range fs {
		f := &fs[i]
		if f.Analyzer == "parse" || f.Analyzer == "sema" {
			continue
		}
		for _, d := range dirs {
			if !directiveMatches(d, f.Analyzer, f.Pos.Line) {
				continue
			}
			f.Suppressed = true
			if f.Detail == nil {
				f.Detail = map[string]string{}
			}
			f.Detail["suppressedBy"] = "//lint:ignore at line " + strconv.Itoa(d.Pos.Line) + ": " + d.Reason
			f.Detail["suppressionKind"] = "inSource"
			break
		}
	}
	return fs
}

// directiveMatches reports whether directive d silences analyzer findings
// on the given source line. The ID "*" matches every analyzer.
func directiveMatches(d token.Directive, analyzer string, line int) bool {
	if line != d.Pos.Line && line != d.Pos.Line+1 {
		return false
	}
	for _, id := range d.IDs {
		if id == analyzer || id == "*" {
			return true
		}
	}
	return false
}
