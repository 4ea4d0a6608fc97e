// SARIF 2.1.0 rendering: findings become a Static Analysis Results
// Interchange Format log that GitHub code scanning (and any other SARIF
// consumer) ingests directly. The emitted subset sticks to the required
// properties plus the optional ones this toolchain can fill faithfully:
// rule metadata, region-positioned results, related locations, suggested
// fixes as fix objects, stable partial fingerprints, and in-source
// suppressions.
package diag

import (
	"io"
	"slices"

	"repro/internal/token"
)

// SARIFSchemaURI is the canonical 2.1.0 schema location stamped into every
// log ($schema is what editors and validators key on).
const SARIFSchemaURI = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

// SARIFVersion is the spec version of the emitted logs.
const SARIFVersion = "2.1.0"

// RuleMeta describes one analyzer for the SARIF rules table. The lint
// layer supplies these from its registry; the reserved front-end IDs
// ("parse", "sema") get synthetic entries.
type RuleMeta struct {
	ID string
	// Doc is the one-line rule description.
	Doc string
	// HelpURI optionally links the rule's documentation.
	HelpURI string
	// Default is the severity the analyzer ordinarily reports at.
	Default Severity
	// Properties carries rule-level metadata into the SARIF property bag
	// (e.g. the race analyzer's blocker taxonomy). Keys render sorted.
	Properties map[string]string
}

// sarifLevel maps a severity to the SARIF reporting level.
func sarifLevel(s Severity) string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	default:
		return "note"
	}
}

// WriteSARIF renders one file's findings as a SARIF 2.1.0 log with a
// trailing newline. rules lists every analyzer that may appear (findings
// whose analyzer is absent get an on-the-fly rule entry so the log always
// validates). Output is deterministic for sorted findings. Suppressed
// findings are included with an inSource suppression object rather than
// dropped — that is how code-scanning backends distinguish "fixed" from
// "silenced".
//
// The log is written in one pass into one buffer sized up front, with the
// bytes encoding/json's Encoder writes under SetIndent("", "  ") for the
// SARIF object model (the test oracle in oracle_test.go keeps that
// model and checks the two agree).
func WriteSARIF(w io.Writer, file string, rules []RuleMeta, fs []Finding) error {
	size, maxKeys := 512+len(file), 0
	for _, m := range rules {
		size += 256 + len(m.ID) + len(m.Doc) + len(m.HelpURI)
		for k, v := range m.Properties {
			size += 32 + len(k) + len(v)
		}
		maxKeys = max(maxKeys, len(m.Properties))
	}
	for i := range fs {
		n, k := sarifSize(&fs[i], len(file))
		size += n
		maxKeys = max(maxKeys, k)
	}
	jw := newJSONW(size, maxKeys)
	jw.open('{')
	jw.key("$schema")
	jw.str(SARIFSchemaURI)
	jw.key("version")
	jw.str(SARIFVersion)
	jw.key("runs")
	jw.open('[')
	jw.elem()
	jw.open('{')
	jw.key("tool")
	jw.open('{')
	jw.key("driver")
	jw.open('{')
	jw.key("name")
	jw.str("arrayflow")
	jw.key("informationUri")
	jw.str("https://github.com/arrayflow/arrayflow")
	jw.key("semanticVersion")
	jw.str("1.0.0")
	jw.key("rules")
	// The rules table: the given rules first (the first of equal IDs
	// wins), then one entry per analyzer that only findings name. ids
	// mirrors the table for ruleIndex; it is small, so a linear scan
	// beats a map.
	var idBuf [32]string
	ids := idBuf[:0]
	for _, m := range rules {
		if slices.Contains(ids, m.ID) {
			continue
		}
		if len(ids) == 0 {
			jw.open('[')
		}
		ids = append(ids, m.ID)
		jw.elem()
		jw.rule(m)
	}
	for i := range fs {
		if slices.Contains(ids, fs[i].Analyzer) {
			continue
		}
		if len(ids) == 0 {
			jw.open('[')
		}
		ids = append(ids, fs[i].Analyzer)
		jw.elem()
		jw.rule(RuleMeta{ID: fs[i].Analyzer, Default: fs[i].Severity})
	}
	if len(ids) == 0 {
		jw.b = append(jw.b, "null"...)
	} else {
		jw.close(']')
	}
	jw.close('}')
	jw.close('}')
	jw.key("results")
	jw.open('[')
	for i := range fs {
		jw.elem()
		jw.result(file, &fs[i], slices.Index(ids, fs[i].Analyzer))
	}
	jw.close(']')
	jw.close('}')
	jw.close(']')
	jw.close('}')
	jw.b = append(jw.b, '\n')
	_, err := w.Write(jw.b)
	return err
}

// sarifSize bounds the indented bytes of f's result, escapes aside
// (newJSONW adds an eighth for them), and returns its detail map's
// size, which bounds the sort scratch. The constants cover each object's
// fixed text at its indentation, with positions of up to five digits.
func sarifSize(f *Finding, fileLen int) (size, keys int) {
	artifact := max(fileLen, len(f.File))
	size = 960 + len(f.Analyzer) + len(f.Message) + artifact
	for _, r := range f.Related {
		size += 384 + len(r.File) + artifact + len(r.Message)
	}
	if len(f.Detail) > 0 {
		size += 48
	}
	for k, v := range f.Detail {
		size += 24 + len(k) + len(v)
	}
	for _, fix := range f.SuggestedFixes {
		size += 384 + len(fix.Message) + artifact
		for _, e := range fix.Edits {
			size += 416 + len(e.NewText)
		}
	}
	if f.Suppressed {
		size += 192
	}
	return size, len(f.Detail)
}

// rule writes one entry of the rules table.
func (w *jsonw) rule(m RuleMeta) {
	doc := m.Doc
	if doc == "" {
		doc = m.ID
	}
	w.open('{')
	w.key("id")
	w.str(m.ID)
	w.key("shortDescription")
	w.text(doc)
	if m.HelpURI != "" {
		w.key("helpUri")
		w.str(m.HelpURI)
	}
	w.key("defaultConfiguration")
	w.open('{')
	w.key("level")
	w.str(sarifLevel(m.Default))
	w.close('}')
	if len(m.Properties) > 0 {
		w.key("properties")
		w.strMap(m.Properties)
	}
	w.close('}')
}

// result writes f as a SARIF result against rule ruleIndex. Multi-file
// front ends stamp each finding with its own module-root-relative
// artifact; the run-level name is only the single-source fallback, so
// `-lang go` results resolve against the real .go files in code scanning
// instead of a synthetic name.
func (w *jsonw) result(file string, f *Finding, ruleIndex int) {
	artifact := artifactName(file, f.File)
	w.open('{')
	w.key("ruleId")
	w.str(f.Analyzer)
	w.key("ruleIndex")
	w.int(ruleIndex)
	w.key("level")
	w.str(sarifLevel(f.Severity))
	w.key("message")
	w.text(f.Message)
	w.key("locations")
	w.open('[')
	w.elem()
	w.open('{')
	w.physicalLocation(artifact, f.Pos, f.End)
	w.close('}')
	w.close(']')
	if len(f.Related) > 0 {
		w.key("relatedLocations")
		w.open('[')
		for _, rel := range f.Related {
			w.elem()
			w.open('{')
			w.physicalLocation(artifactName(artifact, rel.File), rel.Pos, token.Pos{})
			w.key("message")
			w.text(rel.Message)
			w.close('}')
		}
		w.close(']')
	}
	if len(f.SuggestedFixes) > 0 {
		w.key("fixes")
		w.open('[')
		for _, fix := range f.SuggestedFixes {
			w.elem()
			w.fix(artifact, fix)
		}
		w.close(']')
	}
	if f.Suppressed {
		kind := f.Detail["suppressionKind"]
		if kind == "" {
			kind = "inSource"
		}
		w.key("suppressions")
		w.open('[')
		w.elem()
		w.open('{')
		w.key("kind")
		w.str(kind)
		if j := f.Detail["suppressedBy"]; j != "" {
			w.key("justification")
			w.str(j)
		}
		w.close('}')
		w.close(']')
	}
	w.key("partialFingerprints")
	w.open('{')
	w.key("arrayflowFinding/v1")
	w.b = append(w.b, '"')
	w.b = appendHex64(w.b, fingerprint(f))
	w.b = append(w.b, '"')
	w.close('}')
	if len(f.Detail) > 0 {
		w.key("properties")
		w.strMap(f.Detail)
	}
	w.close('}')
}

// physicalLocation writes the physicalLocation member of a location
// object. An invalid end leaves the region a point.
func (w *jsonw) physicalLocation(file string, pos, end token.Pos) {
	w.key("physicalLocation")
	w.open('{')
	w.key("artifactLocation")
	w.uri(file)
	w.key("region")
	if end.IsValid() {
		w.region(pos, end)
	} else {
		w.region(pos, token.Pos{})
	}
	w.close('}')
}

func (w *jsonw) uri(file string) {
	w.open('{')
	w.key("uri")
	w.str(file)
	w.close('}')
}

// region writes a SARIF region; zero columns and a zero end line are
// omitted, as the optional members they are.
func (w *jsonw) region(start, end token.Pos) {
	w.open('{')
	w.key("startLine")
	w.int(start.Line)
	if start.Col != 0 {
		w.key("startColumn")
		w.int(start.Col)
	}
	if end.Line != 0 {
		w.key("endLine")
		w.int(end.Line)
	}
	if end.Col != 0 {
		w.key("endColumn")
		w.int(end.Col)
	}
	w.close('}')
}

// fix writes a SuggestedFix as a SARIF fix object. Insertions (invalid
// End) become zero-width deleted regions.
func (w *jsonw) fix(file string, fix SuggestedFix) {
	w.open('{')
	w.key("description")
	w.text(fix.Message)
	w.key("artifactChanges")
	w.open('[')
	w.elem()
	w.open('{')
	w.key("artifactLocation")
	w.uri(file)
	w.key("replacements")
	w.open('[')
	for _, e := range fix.Edits {
		end := e.End
		if !end.IsValid() {
			end = e.Pos
		}
		w.elem()
		w.open('{')
		w.key("deletedRegion")
		w.region(e.Pos, end)
		if e.NewText != "" {
			w.key("insertedContent")
			w.text(e.NewText)
		}
		w.close('}')
	}
	w.close(']')
	w.close('}')
	w.close(']')
	w.close('}')
}

// fingerprint is the stable identity of a finding for baseline matching
// across runs: the 64-bit FNV-1a hash of the owning file (when the front
// end is multi-file), the analyzer, severity, and message, NUL-separated
// (positions shift as code moves; messages carry the distinguishing
// facts). The same key feeds the suppression baseline, so SARIF consumers
// and -baseline agree on what "the same finding" means. Findings without
// a File hash exactly the bytes they always did, so single-source
// fingerprints are unchanged.
func fingerprint(f *Finding) uint64 {
	h := uint64(fnvOffset64)
	if f.File != "" {
		h = fnvAdd(h, f.File)
		h = fnvAdd(h, "\x00")
	}
	h = fnvAdd(h, f.Analyzer)
	h = fnvAdd(h, "\x00")
	h = fnvAdd(h, f.Severity.String())
	h = fnvAdd(h, "\x00")
	return fnvAdd(h, f.Message)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvAdd folds s into the FNV-1a hash h.
func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// appendHex64 appends x as 16 lower-case hex digits.
func appendHex64(b []byte, x uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hexDigits[x>>uint(shift)&0xF])
	}
	return b
}

// BaselineKey is the position-independent identity used by both SARIF
// partial fingerprints and findings baselines. Multi-file findings fold in
// their file so the same verdict text in two different .go files is two
// distinct baseline classes; single-source findings keep the historical
// file-less key.
func BaselineKey(f Finding) string {
	key := f.Analyzer + "\x00" + f.Severity.String() + "\x00" + f.Message
	if f.File != "" {
		key = f.File + "\x00" + key
	}
	return key
}
