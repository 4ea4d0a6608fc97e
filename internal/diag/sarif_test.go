package diag

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/token"
)

// sarifTestRules is a minimal rules table exercising defaults of each
// severity.
var sarifTestRules = []RuleMeta{
	{ID: "parse", Doc: "parse errors", Default: Error},
	{ID: "alpha", Doc: "alpha findings", Default: Warning},
	{ID: "beta", Doc: "beta findings", Default: Info},
}

func sarifTestFindings() []Finding {
	return []Finding{
		{
			Analyzer: "alpha",
			Pos:      token.Pos{Line: 3, Col: 1},
			End:      token.Pos{Line: 3, Col: 10},
			Severity: Warning,
			Message:  "loop is provably racy",
			Related:  []Related{{Pos: token.Pos{Line: 4, Col: 3}, Message: "conflicting store"}},
			Detail:   map[string]string{"verdict": "racy"},
		},
		{
			Analyzer: "beta",
			Pos:      token.Pos{Line: 5, Col: 2},
			Severity: Info,
			Message:  "value reused",
			SuggestedFixes: []SuggestedFix{{
				Message: "delete the dead line",
				Edits: []TextEdit{
					{Pos: token.Pos{Line: 5, Col: 1}, End: token.Pos{Line: 6, Col: 1}},
					{Pos: token.Pos{Line: 2, Col: 1}, NewText: "B[0] := 0\n"},
				},
			}},
		},
		{
			Analyzer:   "alpha",
			Pos:        token.Pos{Line: 7, Col: 1},
			Severity:   Warning,
			Message:    "silenced finding",
			Suppressed: true,
			Detail: map[string]string{
				"suppressedBy":    "//lint:ignore at line 6: known issue",
				"suppressionKind": "inSource",
			},
		},
		{
			// An analyzer absent from the rules table: WriteSARIF must add an
			// on-the-fly rule so ruleIndex always resolves.
			Analyzer: "gamma",
			Pos:      token.Pos{Line: 9, Col: 1},
			Severity: Error,
			Message:  "stray analyzer",
		},
	}
}

// sarifDoc is the decoding mirror of the emitted subset, loose enough to
// catch structural drift (json.Decoder with DisallowUnknownFields would
// reject legitimate future additions, so unknown fields are tolerated —
// the golden tests in internal/lint pin exact bytes).
type sarifDoc struct {
	Schema  string `json:"$schema"`
	Version string `json:"version"`
	Runs    []struct {
		Tool struct {
			Driver struct {
				Name  string `json:"name"`
				Rules []struct {
					ID               string `json:"id"`
					ShortDescription struct {
						Text string `json:"text"`
					} `json:"shortDescription"`
					DefaultConfiguration struct {
						Level string `json:"level"`
					} `json:"defaultConfiguration"`
				} `json:"rules"`
			} `json:"driver"`
		} `json:"tool"`
		Results []struct {
			RuleID    string `json:"ruleId"`
			RuleIndex int    `json:"ruleIndex"`
			Level     string `json:"level"`
			Message   struct {
				Text string `json:"text"`
			} `json:"message"`
			Locations []struct {
				PhysicalLocation struct {
					ArtifactLocation struct {
						URI string `json:"uri"`
					} `json:"artifactLocation"`
					Region struct {
						StartLine   int `json:"startLine"`
						StartColumn int `json:"startColumn"`
						EndLine     int `json:"endLine"`
						EndColumn   int `json:"endColumn"`
					} `json:"region"`
				} `json:"physicalLocation"`
			} `json:"locations"`
			RelatedLocations []struct {
				Message *struct {
					Text string `json:"text"`
				} `json:"message"`
			} `json:"relatedLocations"`
			Fixes []struct {
				Description struct {
					Text string `json:"text"`
				} `json:"description"`
				ArtifactChanges []struct {
					Replacements []struct {
						DeletedRegion struct {
							StartLine int `json:"startLine"`
							EndLine   int `json:"endLine"`
						} `json:"deletedRegion"`
						InsertedContent *struct {
							Text string `json:"text"`
						} `json:"insertedContent"`
					} `json:"replacements"`
				} `json:"artifactChanges"`
			} `json:"fixes"`
			Suppressions []struct {
				Kind          string `json:"kind"`
				Justification string `json:"justification"`
			} `json:"suppressions"`
			PartialFingerprints map[string]string `json:"partialFingerprints"`
		} `json:"results"`
	} `json:"runs"`
}

// TestSARIFStructure validates the emitted log against the spec subset
// SARIF consumers depend on: schema/version stamps, a coherent rules
// table, ruleIndex pointing at the matching rule, regions, related
// locations, fixes with replacements, suppression records, and stable
// fingerprints.
func TestSARIFStructure(t *testing.T) {
	var buf bytes.Buffer
	fs := sarifTestFindings()
	if err := WriteSARIF(&buf, "examples/t.loop", sarifTestRules, fs); err != nil {
		t.Fatal(err)
	}
	var doc sarifDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("emitted SARIF is not valid JSON: %v", err)
	}
	if doc.Schema != SARIFSchemaURI {
		t.Errorf("$schema = %q, want %q", doc.Schema, SARIFSchemaURI)
	}
	if doc.Version != SARIFVersion {
		t.Errorf("version = %q, want %q", doc.Version, SARIFVersion)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "arrayflow" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}

	// Every declared rule appears, plus the on-the-fly "gamma".
	ruleAt := map[string]int{}
	for i, r := range run.Tool.Driver.Rules {
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has an empty shortDescription", r.ID)
		}
		if r.DefaultConfiguration.Level == "" {
			t.Errorf("rule %s has no defaultConfiguration.level", r.ID)
		}
		ruleAt[r.ID] = i
	}
	for _, want := range []string{"parse", "alpha", "beta", "gamma"} {
		if _, ok := ruleAt[want]; !ok {
			t.Errorf("rules table is missing %q (have %v)", want, ruleAt)
		}
	}

	if len(run.Results) != len(fs) {
		t.Fatalf("results = %d, want %d (suppressed findings must be kept)", len(run.Results), len(fs))
	}
	for i, r := range run.Results {
		f := fs[i]
		if r.RuleID != f.Analyzer {
			t.Errorf("result %d ruleId = %q, want %q", i, r.RuleID, f.Analyzer)
		}
		if want := ruleAt[f.Analyzer]; r.RuleIndex != want {
			t.Errorf("result %d ruleIndex = %d, but rule %q sits at %d", i, r.RuleIndex, f.Analyzer, want)
		}
		if want := sarifLevel(f.Severity); r.Level != want {
			t.Errorf("result %d level = %q, want %q", i, r.Level, want)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result %d has %d locations, want 1", i, len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI != "examples/t.loop" {
			t.Errorf("result %d artifact URI = %q", i, loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine != f.Pos.Line || loc.Region.StartColumn != f.Pos.Col {
			t.Errorf("result %d region start = %d:%d, want %d:%d",
				i, loc.Region.StartLine, loc.Region.StartColumn, f.Pos.Line, f.Pos.Col)
		}
		if got := r.PartialFingerprints["arrayflowFinding/v1"]; got != oracleFingerprint(f) {
			t.Errorf("result %d fingerprint = %q, want %q", i, got, oracleFingerprint(f))
		}
		if len(r.RelatedLocations) != len(f.Related) {
			t.Errorf("result %d relatedLocations = %d, want %d", i, len(r.RelatedLocations), len(f.Related))
		}
		for j, rel := range r.RelatedLocations {
			if rel.Message == nil || rel.Message.Text != f.Related[j].Message {
				t.Errorf("result %d related %d lost its message", i, j)
			}
		}
	}

	// The fix-bearing finding: deletion region spans the line, insertion has
	// a zero-width deleted region with content.
	fix := run.Results[1].Fixes
	if len(fix) != 1 || len(fix[0].ArtifactChanges) != 1 {
		t.Fatalf("result 1: fixes/changes = %v", fix)
	}
	reps := fix[0].ArtifactChanges[0].Replacements
	if len(reps) != 2 {
		t.Fatalf("replacements = %d, want 2", len(reps))
	}
	if reps[0].DeletedRegion.StartLine != 5 || reps[0].DeletedRegion.EndLine != 6 {
		t.Errorf("deletion region = %+v", reps[0].DeletedRegion)
	}
	if reps[0].InsertedContent != nil {
		t.Error("pure deletion carries insertedContent")
	}
	if reps[1].DeletedRegion.StartLine != reps[1].DeletedRegion.EndLine {
		t.Errorf("pure insertion has a non-zero-width region: %+v", reps[1].DeletedRegion)
	}
	if reps[1].InsertedContent == nil || !strings.Contains(reps[1].InsertedContent.Text, "B[0] := 0") {
		t.Errorf("insertion lost its content: %+v", reps[1].InsertedContent)
	}

	// The suppressed finding carries exactly one suppression with the
	// in-source kind and justification; loud findings carry none.
	sup := run.Results[2].Suppressions
	if len(sup) != 1 || sup[0].Kind != "inSource" {
		t.Fatalf("suppressions = %+v, want one inSource", sup)
	}
	if !strings.Contains(sup[0].Justification, "known issue") {
		t.Errorf("justification = %q", sup[0].Justification)
	}
	for _, i := range []int{0, 1, 3} {
		if len(run.Results[i].Suppressions) != 0 {
			t.Errorf("loud result %d carries suppressions", i)
		}
	}
}

// TestSARIFEmptyFindings verifies a clean run still emits a valid log with
// the full rules table and an empty (non-null) results array.
func TestSARIFEmptyFindings(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "f.loop", sarifTestRules, nil); err != nil {
		t.Fatal(err)
	}
	var doc sarifDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 1 || len(doc.Runs[0].Tool.Driver.Rules) != len(sarifTestRules) {
		t.Errorf("rules table incomplete on an empty run")
	}
	if bytes.Contains(buf.Bytes(), []byte(`"results": null`)) {
		t.Error("results emitted as null; SARIF requires an array")
	}
}

// TestFingerprintStability pins that the fingerprint ignores positions
// (the point of a partial fingerprint: surviving unrelated edits) and
// distinguishes message changes.
func TestFingerprintStability(t *testing.T) {
	a := Finding{Analyzer: "alpha", Pos: token.Pos{Line: 3, Col: 1}, Severity: Warning, Message: "m"}
	b := a
	b.Pos = token.Pos{Line: 30, Col: 7}
	if oracleFingerprint(a) != oracleFingerprint(b) {
		t.Error("fingerprint depends on position")
	}
	c := a
	c.Message = "other"
	if oracleFingerprint(a) == oracleFingerprint(c) {
		t.Error("fingerprint ignores the message")
	}
	if BaselineKey(a) != BaselineKey(b) || BaselineKey(a) == BaselineKey(c) {
		t.Error("BaselineKey and fingerprint disagree on identity")
	}
}
