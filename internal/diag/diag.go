// Package diag defines the unified diagnostic currency of the static
// analysis layer: a Finding ties an analyzer's verdict to a source position
// range, a severity, and optional structured detail. Findings are value
// types with a total deterministic order, so analyzer output can be pinned
// byte-for-byte in golden tests and emitted stably from parallel runs.
package diag

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/token"
)

// Severity grades a finding. The zero value is Info.
type Severity int

// Severity levels, ordered least to most severe.
const (
	Info Severity = iota
	Warning
	Error
)

var severityNames = [...]string{"info", "warning", "error"}

// String returns the lower-case severity name.
func (s Severity) String() string {
	if s < Info || s > Error {
		return "Severity(" + strconv.Itoa(int(s)) + ")"
	}
	return severityNames[s]
}

// MarshalJSON emits the severity as its lower-case name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts a lower-case severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range severityNames {
		if n == name {
			*s = Severity(i)
			return nil
		}
	}
	return fmt.Errorf("diag: unknown severity %q", name)
}

// Related points at a secondary position that explains a finding (the
// overwriting store of a dead store, the blocking reference pair of a
// non-parallelizable loop). File, when non-empty, names the source file the
// position belongs to; empty means "same file as the run" (single-file
// mini-language inputs never set it).
type Related struct {
	File    string    `json:"file,omitempty"`
	Pos     token.Pos `json:"pos"`
	Message string    `json:"message"`
}

// TextEdit is one replacement of a source range by new text. The range is
// [Pos, End) in line/column terms; an invalid End means a pure insertion at
// Pos. Edits never span a change that the positions cannot express (they
// are computed against the exact source the analyzers saw).
type TextEdit struct {
	Pos     token.Pos `json:"pos"`
	End     token.Pos `json:"end"`
	NewText string    `json:"newText"`
}

// SuggestedFix is a machine-applicable repair for a finding: a short
// description plus the text edits realizing it. Fixes must be mechanical —
// applying one removes the finding without changing intended behavior (or,
// for uninitialized reads, makes the intended behavior explicit).
type SuggestedFix struct {
	Message string     `json:"message"`
	Edits   []TextEdit `json:"edits"`
}

// Finding is one diagnostic produced by a static analyzer.
type Finding struct {
	// Analyzer is the stable ID of the producing analyzer (e.g.
	// "deadstore"); parse and semantic errors use "parse" and "sema".
	Analyzer string `json:"analyzer"`
	// File names the source file the finding points into, relative to the
	// module root, for multi-file front ends (the Go importer). Empty means
	// the single source of the run: renderers then fall back to the run's
	// display name, which keeps single-file mini-language output unchanged.
	File string `json:"file,omitempty"`
	// Pos is the primary source position; End, when valid, closes a range
	// (an invalid End means the finding covers a single point).
	Pos token.Pos `json:"pos"`
	End token.Pos `json:"end"`
	// Severity grades the finding; Error severities fail `arrayflow vet`.
	Severity Severity `json:"severity"`
	// Message is the human-readable, single-line description.
	Message string `json:"message"`
	// Related lists secondary positions that explain the finding.
	Related []Related `json:"related,omitempty"`
	// Detail carries analyzer-specific structured facts (distances, bounds,
	// class forms). A string-keyed map keeps JSON output deterministic:
	// encoding/json sorts map keys.
	Detail map[string]string `json:"detail,omitempty"`
	// SuggestedFixes lists machine-applicable repairs; ApplyFixes applies
	// the first fix of each finding when its edits do not conflict.
	SuggestedFixes []SuggestedFix `json:"suggestedFixes,omitempty"`
	// Suppressed marks a finding silenced by a //lint:ignore directive (the
	// reason is kept in Detail["suppressedBy"]). Suppressed findings are
	// excluded from text output and exit codes but surface in SARIF with a
	// suppression record, as code-scanning backends expect.
	Suppressed bool `json:"suppressed,omitempty"`
}

// String renders "line:col: severity: analyzer: message".
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s: %s", f.Pos, f.Severity, f.Analyzer, f.Message)
}

// Less is the total deterministic order over findings: by file first
// (multi-file runs group per artifact; the empty file of single-source
// runs sorts before any named one), then position (source order is what a
// reader scans by), then analyzer ID, severity, message, and finally the
// detail rendering as an ultimate tie-break.
func Less(a, b Finding) bool {
	if a.File != b.File {
		return a.File < b.File
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Col != b.Pos.Col {
		return a.Pos.Col < b.Pos.Col
	}
	if a.Analyzer != b.Analyzer {
		return a.Analyzer < b.Analyzer
	}
	if a.Severity != b.Severity {
		return a.Severity > b.Severity // more severe first
	}
	if a.Message != b.Message {
		return a.Message < b.Message
	}
	return detailKey(a) < detailKey(b)
}

func detailKey(f Finding) string {
	if len(f.Detail) == 0 {
		return ""
	}
	keys := make([]string, 0, len(f.Detail))
	for k := range f.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, f.Detail[k])
	}
	return b.String()
}

// Sort orders findings deterministically in place (see Less).
func Sort(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool { return Less(fs[i], fs[j]) })
}

// Dedup removes exact duplicates from a sorted slice.
func Dedup(fs []Finding) []Finding {
	out := fs[:0]
	for i, f := range fs {
		if i > 0 && equal(f, fs[i-1]) {
			continue
		}
		out = append(out, f)
	}
	return out
}

func equal(a, b Finding) bool {
	if a.File != b.File {
		return false
	}
	if a.Analyzer != b.Analyzer || a.Pos != b.Pos || a.End != b.End ||
		a.Severity != b.Severity || a.Message != b.Message ||
		len(a.Related) != len(b.Related) {
		return false
	}
	for i := range a.Related {
		if a.Related[i] != b.Related[i] {
			return false
		}
	}
	return detailKey(a) == detailKey(b)
}

// MaxSeverity returns the highest severity present (Info for an empty set,
// alongside ok=false).
func MaxSeverity(fs []Finding) (Severity, bool) {
	if len(fs) == 0 {
		return Info, false
	}
	max := Info
	for _, f := range fs {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max, true
}

// WriteText renders findings in the conventional compiler format, one per
// line, with related positions indented beneath:
//
//	file:3:9: warning: deadstore: store to A[i] is overwritten ...
//	    file:4:9: overwritten here (distance 1)
//
// Suppressed findings (//lint:ignore, baseline) are omitted — text output
// is the human-facing view of what still needs attention; JSON and SARIF
// carry the suppressed findings with their justification.
//
// file is the run's display name, used for findings that do not carry
// their own File (single-source front ends); findings with File set (the
// Go importer's module-root-relative paths) print it instead.
//
// The output is appended to one buffer sized up front and written with a
// single Write.
func WriteText(w io.Writer, file string, fs []Finding) error {
	size := 0
	for i := range fs {
		f := &fs[i]
		size += len(file) + len(f.File) + len(f.Analyzer) + len(f.Message) + 48
		for _, r := range f.Related {
			size += len(file) + len(f.File) + len(r.File) + len(r.Message) + 32
		}
	}
	b := make([]byte, 0, size)
	for i := range fs {
		f := &fs[i]
		if f.Suppressed {
			continue
		}
		artifact := artifactName(file, f.File)
		b = append(b, artifact...)
		b = append(b, ':')
		b = appendPos(b, f.Pos)
		b = append(b, ": "...)
		b = append(b, f.Severity.String()...)
		b = append(b, ": "...)
		b = append(b, f.Analyzer...)
		b = append(b, ": "...)
		b = append(b, f.Message...)
		b = append(b, '\n')
		for _, r := range f.Related {
			b = append(b, "    "...)
			b = append(b, artifactName(artifact, r.File)...)
			b = append(b, ':')
			b = appendPos(b, r.Pos)
			b = append(b, ": "...)
			b = append(b, r.Message...)
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

// appendPos appends "line:col".
func appendPos(b []byte, p token.Pos) []byte {
	b = strconv.AppendInt(b, int64(p.Line), 10)
	b = append(b, ':')
	return strconv.AppendInt(b, int64(p.Col), 10)
}

// artifactName resolves a finding-level file against the run-level display
// name: per-finding files win, the run name is the single-source fallback.
func artifactName(runFile, findingFile string) string {
	if findingFile != "" {
		return findingFile
	}
	return runFile
}

// WriteJSON renders one file's findings as an indented JSON document with a
// trailing newline:
//
//	{"file": <file>, "findings": [<finding>, ...]}
//
// Each finding's members follow Finding's field order and JSON tags, with
// Detail keys sorted; the bytes are exactly what encoding/json's Encoder
// writes for the same value with SetIndent("", "  "), HTML escaping
// included. No findings render as an empty array. The document is
// appended to one buffer sized up front and written with a single Write.
func WriteJSON(w io.Writer, file string, fs []Finding) error {
	size, maxKeys := 64+len(file), 0
	for i := range fs {
		n, k := jsonSize(&fs[i])
		size += n
		maxKeys = max(maxKeys, k)
	}
	jw := newJSONW(size, maxKeys)
	jw.open('{')
	jw.key("file")
	jw.str(file)
	jw.key("findings")
	jw.open('[')
	for i := range fs {
		jw.elem()
		jw.finding(&fs[i])
	}
	jw.close(']')
	jw.close('}')
	jw.b = append(jw.b, '\n')
	_, err := w.Write(jw.b)
	return err
}

// jsonSize bounds the indented JSON bytes of f, escapes aside (newJSONW
// adds an eighth for them), and returns its detail map's size, which
// bounds the sort scratch. The constants cover each object's fixed text
// at its indentation, with positions of up to five digits.
func jsonSize(f *Finding) (size, keys int) {
	size = 256 + len(f.Analyzer) + len(f.File) + len(f.Message)
	for _, r := range f.Related {
		size += 160 + len(r.File) + len(r.Message)
	}
	for k, v := range f.Detail {
		size += 24 + len(k) + len(v)
	}
	for _, fix := range f.SuggestedFixes {
		size += 112 + len(fix.Message)
		for _, e := range fix.Edits {
			size += 288 + len(e.NewText)
		}
	}
	return size, len(f.Detail)
}

// finding writes f as encoding/json renders the tagged Finding struct.
func (w *jsonw) finding(f *Finding) {
	w.open('{')
	w.key("analyzer")
	w.str(f.Analyzer)
	if f.File != "" {
		w.key("file")
		w.str(f.File)
	}
	w.key("pos")
	w.pos(f.Pos)
	w.key("end")
	w.pos(f.End)
	w.key("severity")
	w.str(f.Severity.String())
	w.key("message")
	w.str(f.Message)
	if len(f.Related) > 0 {
		w.key("related")
		w.open('[')
		for _, r := range f.Related {
			w.elem()
			w.open('{')
			if r.File != "" {
				w.key("file")
				w.str(r.File)
			}
			w.key("pos")
			w.pos(r.Pos)
			w.key("message")
			w.str(r.Message)
			w.close('}')
		}
		w.close(']')
	}
	if len(f.Detail) > 0 {
		w.key("detail")
		w.strMap(f.Detail)
	}
	if len(f.SuggestedFixes) > 0 {
		w.key("suggestedFixes")
		w.open('[')
		for _, fix := range f.SuggestedFixes {
			w.elem()
			w.open('{')
			w.key("message")
			w.str(fix.Message)
			w.key("edits")
			if fix.Edits == nil {
				w.b = append(w.b, "null"...)
			} else {
				w.open('[')
				for _, e := range fix.Edits {
					w.elem()
					w.open('{')
					w.key("pos")
					w.pos(e.Pos)
					w.key("end")
					w.pos(e.End)
					w.key("newText")
					w.str(e.NewText)
					w.close('}')
				}
				w.close(']')
			}
			w.close('}')
		}
		w.close(']')
	}
	if f.Suppressed {
		w.key("suppressed")
		w.b = append(w.b, "true"...)
	}
	w.close('}')
}
