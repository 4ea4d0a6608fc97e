package diag

// The test oracle of the one-pass writers: WriteText, WriteJSON and
// WriteSARIF as they were written with fmt and encoding/json, and the
// SARIF object model they encoded. The writers must reproduce these bytes
// exactly (TestWritersMatchOracle, FuzzWriteJSON, FuzzWriteSARIF).

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strings"

	"repro/internal/token"
)

// oracleString is Finding.String rendered through fmt.
func oracleString(f Finding) string {
	return fmt.Sprintf("%s: %s: %s: %s", f.Pos, f.Severity, f.Analyzer, f.Message)
}

// oracleText is WriteText as it was written with fmt: it renders findings in the conventional compiler format, one per
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
func oracleText(w io.Writer, file string, fs []Finding) error {
	// Render into one pre-sized builder and write once: the per-line
	// Fprintf-to-w pattern cost a write call per finding, which dominated
	// rendering on large finding sets.
	var b strings.Builder
	size := 0
	for _, f := range fs {
		size += len(file) + len(f.File) + len(f.Message) + 48
		for _, r := range f.Related {
			size += len(file) + len(r.Message) + 24
		}
	}
	b.Grow(size)
	for _, f := range fs {
		if f.Suppressed {
			continue
		}
		fmt.Fprintf(&b, "%s:%s\n", artifactName(file, f.File), oracleString(f))
		for _, r := range f.Related {
			fmt.Fprintf(&b, "    %s:%s: %s\n", artifactName(artifactName(file, f.File), r.File), r.Pos, r.Message)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// File groups the findings of one source file for JSON output.
type File struct {
	File     string    `json:"file"`
	Findings []Finding `json:"findings"`
}

// oracleJSON is WriteJSON as it was written with encoding/json: it renders one file's findings as an indented JSON document with a
// trailing newline. Output is deterministic for sorted findings: struct
// fields emit in declaration order and Detail maps sort by key.
func oracleJSON(w io.Writer, file string, fs []Finding) error {
	if fs == nil {
		fs = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(File{File: file, Findings: fs})
}

// The sarif* types mirror the SARIF 2.1.0 object model, restricted to the
// emitted subset. Field order is emission order (encoding/json preserves
// struct order), which keeps golden files stable.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	SemVer         string      `json:"semanticVersion,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string             `json:"id"`
	ShortDescription sarifMessage       `json:"shortDescription"`
	HelpURI          string             `json:"helpUri,omitempty"`
	DefaultConfig    sarifConfiguration `json:"defaultConfiguration"`
	Properties       map[string]string  `json:"properties,omitempty"`
}

type sarifConfiguration struct {
	Level string `json:"level"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID              string             `json:"ruleId"`
	RuleIndex           int                `json:"ruleIndex"`
	Level               string             `json:"level"`
	Message             sarifMessage       `json:"message"`
	Locations           []sarifLocation    `json:"locations"`
	RelatedLocations    []sarifLocation    `json:"relatedLocations,omitempty"`
	Fixes               []sarifFix         `json:"fixes,omitempty"`
	Suppressions        []sarifSuppression `json:"suppressions,omitempty"`
	PartialFingerprints map[string]string  `json:"partialFingerprints,omitempty"`
	Properties          map[string]string  `json:"properties,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
	Message          *sarifMessage         `json:"message,omitempty"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
	EndLine     int `json:"endLine,omitempty"`
	EndColumn   int `json:"endColumn,omitempty"`
}

type sarifFix struct {
	Description     sarifMessage          `json:"description"`
	ArtifactChanges []sarifArtifactChange `json:"artifactChanges"`
}

type sarifArtifactChange struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Replacements     []sarifReplacement    `json:"replacements"`
}

type sarifReplacement struct {
	DeletedRegion   sarifRegion   `json:"deletedRegion"`
	InsertedContent *sarifMessage `json:"insertedContent,omitempty"`
}

type sarifSuppression struct {
	Kind          string `json:"kind"`
	Justification string `json:"justification,omitempty"`
}

// oracleSARIF is WriteSARIF as it was written with encoding/json: it renders one file's findings as a SARIF 2.1.0 log with a
// trailing newline. rules lists every analyzer that may appear (findings
// whose analyzer is absent get an on-the-fly rule entry so the log always
// validates). Output is deterministic for sorted findings. Suppressed
// findings are included with an inSource suppression object rather than
// dropped — that is how code-scanning backends distinguish "fixed" from
// "silenced".
func oracleSARIF(w io.Writer, file string, rules []RuleMeta, fs []Finding) error {
	index := map[string]int{}
	var sr []sarifRule
	addRule := func(m RuleMeta) {
		if _, ok := index[m.ID]; ok {
			return
		}
		index[m.ID] = len(sr)
		doc := m.Doc
		if doc == "" {
			doc = m.ID
		}
		sr = append(sr, sarifRule{
			ID:               m.ID,
			ShortDescription: sarifMessage{Text: doc},
			HelpURI:          m.HelpURI,
			DefaultConfig:    sarifConfiguration{Level: sarifLevel(m.Default)},
			Properties:       m.Properties,
		})
	}
	for _, m := range rules {
		addRule(m)
	}
	results := make([]sarifResult, 0, len(fs))
	for _, f := range fs {
		addRule(RuleMeta{ID: f.Analyzer, Default: f.Severity})
		// Multi-file front ends stamp each finding with its own
		// module-root-relative artifact; the run-level name is only the
		// single-source fallback, so `-lang go` results resolve against the
		// real .go files in code scanning instead of a synthetic name.
		artifact := artifactName(file, f.File)
		r := sarifResult{
			RuleID:    f.Analyzer,
			RuleIndex: index[f.Analyzer],
			Level:     sarifLevel(f.Severity),
			Message:   sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: physicalLocation(artifact, f.Pos, f.End),
			}},
			PartialFingerprints: map[string]string{
				"arrayflowFinding/v1": oracleFingerprint(f),
			},
		}
		for _, rel := range f.Related {
			msg := sarifMessage{Text: rel.Message}
			r.RelatedLocations = append(r.RelatedLocations, sarifLocation{
				PhysicalLocation: physicalLocation(artifactName(artifact, rel.File), rel.Pos, token.Pos{}),
				Message:          &msg,
			})
		}
		for _, fix := range f.SuggestedFixes {
			r.Fixes = append(r.Fixes, sarifFixOf(artifact, fix))
		}
		if f.Suppressed {
			kind := f.Detail["suppressionKind"]
			if kind == "" {
				kind = "inSource"
			}
			r.Suppressions = append(r.Suppressions, sarifSuppression{
				Kind:          kind,
				Justification: f.Detail["suppressedBy"],
			})
		}
		if len(f.Detail) > 0 {
			r.Properties = f.Detail
		}
		results = append(results, r)
	}
	log := sarifLog{
		Schema:  SARIFSchemaURI,
		Version: SARIFVersion,
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:           "arrayflow",
				InformationURI: "https://github.com/arrayflow/arrayflow",
				SemVer:         "1.0.0",
				Rules:          sr,
			}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// oracleFingerprint is fingerprint rendered through hash/fnv and fmt: the stable identity of a finding for baseline matching
// across runs: the owning file (when the front end is multi-file), the
// analyzer, severity, and message (positions shift as code moves; messages
// carry the distinguishing facts). The same key feeds the suppression
// baseline, so SARIF consumers and -baseline agree on what "the same
// finding" means. Findings without a File hash exactly the bytes they
// always did, so single-source fingerprints are unchanged.
func oracleFingerprint(f Finding) string {
	h := fnv.New64a()
	if f.File != "" {
		fmt.Fprintf(h, "%s\x00", f.File)
	}
	fmt.Fprintf(h, "%s\x00%s\x00%s", f.Analyzer, f.Severity, f.Message)
	return fmt.Sprintf("%016x", h.Sum64())
}

func physicalLocation(file string, pos, end token.Pos) sarifPhysicalLocation {
	reg := sarifRegion{StartLine: pos.Line, StartColumn: pos.Col}
	if end.IsValid() {
		reg.EndLine = end.Line
		reg.EndColumn = end.Col
	}
	return sarifPhysicalLocation{
		ArtifactLocation: sarifArtifactLocation{URI: file},
		Region:           reg,
	}
}

// sarifFixOf converts a SuggestedFix to the SARIF fix object. Insertions
// (invalid End) become zero-width deleted regions.
func sarifFixOf(file string, fix SuggestedFix) sarifFix {
	reps := make([]sarifReplacement, 0, len(fix.Edits))
	for _, e := range fix.Edits {
		reg := sarifRegion{StartLine: e.Pos.Line, StartColumn: e.Pos.Col}
		if e.End.IsValid() {
			reg.EndLine = e.End.Line
			reg.EndColumn = e.End.Col
		} else {
			reg.EndLine = e.Pos.Line
			reg.EndColumn = e.Pos.Col
		}
		rep := sarifReplacement{DeletedRegion: reg}
		if e.NewText != "" {
			rep.InsertedContent = &sarifMessage{Text: e.NewText}
		}
		reps = append(reps, rep)
	}
	return sarifFix{
		Description: sarifMessage{Text: fix.Message},
		ArtifactChanges: []sarifArtifactChange{{
			ArtifactLocation: sarifArtifactLocation{URI: file},
			Replacements:     reps,
		}},
	}
}
