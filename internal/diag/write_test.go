package diag

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/token"
)

// writerInput is one call's worth of writer arguments.
type writerInput struct {
	file  string
	rules []RuleMeta
	fs    []Finding
}

// fuzzReader decodes fuzz bytes into writer inputs. Exhausted input reads
// as zeros, so every byte string decodes to some input.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *fuzzReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.byte()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *fuzzReader) int() int {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.byte()
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

func (r *fuzzReader) str() string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		n = uint64(len(r.b))
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *fuzzReader) pos() token.Pos { return token.Pos{Line: r.int(), Col: r.int()} }

func (r *fuzzReader) strMap() map[string]string {
	m := map[string]string{}
	for n := r.byte(); n > 0; n-- {
		k := r.str()
		m[k] = r.str()
	}
	return m
}

// Finding flag bits of the fuzz encoding; the top three bits carry the
// severity, out-of-range values included.
const (
	flagFile = 1 << iota
	flagRelated
	flagDetail
	flagFixes
	flagSuppressed
	flagSeverityShift = iota
)

// decodeWriterInput reads the run's file, the rules table and the findings.
// Nil and empty Related, Detail, SuggestedFixes and Edits are distinct in
// the encoding.
func decodeWriterInput(data []byte) writerInput {
	r := &fuzzReader{b: data}
	in := writerInput{file: r.str()}
	for n := r.byte(); n > 0; n-- {
		m := RuleMeta{ID: r.str(), Doc: r.str(), HelpURI: r.str(), Default: Severity(r.byte() % 4)}
		if r.byte() != 0 {
			m.Properties = r.strMap()
		}
		in.rules = append(in.rules, m)
	}
	for n := r.byte(); n > 0; n-- {
		flags := r.byte()
		f := Finding{Analyzer: r.str(), Severity: Severity(flags >> flagSeverityShift)}
		if flags&flagFile != 0 {
			f.File = r.str()
		}
		f.Pos, f.End, f.Message = r.pos(), r.pos(), r.str()
		f.Suppressed = flags&flagSuppressed != 0
		if flags&flagRelated != 0 {
			f.Related = []Related{}
			for k := r.byte(); k > 0; k-- {
				f.Related = append(f.Related, Related{File: r.str(), Pos: r.pos(), Message: r.str()})
			}
		}
		if flags&flagDetail != 0 {
			f.Detail = r.strMap()
		}
		if flags&flagFixes != 0 {
			f.SuggestedFixes = []SuggestedFix{}
			for k := r.byte(); k > 0; k-- {
				fix := SuggestedFix{Message: r.str()}
				if e := r.byte(); e > 0 {
					fix.Edits = []TextEdit{}
					for ; e > 1; e-- {
						fix.Edits = append(fix.Edits, TextEdit{Pos: r.pos(), End: r.pos(), NewText: r.str()})
					}
				}
				f.SuggestedFixes = append(f.SuggestedFixes, fix)
			}
		}
		in.fs = append(in.fs, f)
	}
	return in
}

// fuzzWriter is decodeWriterInput's inverse, for seeding the fuzzers.
type fuzzWriter struct{ b []byte }

func (w *fuzzWriter) byte(c int) { w.b = append(w.b, byte(c)) }
func (w *fuzzWriter) int(n int)  { w.b = binary.AppendVarint(w.b, int64(n)) }
func (w *fuzzWriter) str(s string) {
	w.b = binary.AppendUvarint(w.b, uint64(len(s)))
	w.b = append(w.b, s...)
}
func (w *fuzzWriter) pos(p token.Pos) { w.int(p.Line); w.int(p.Col) }
func (w *fuzzWriter) strMap(m map[string]string) {
	w.byte(len(m))
	for k, v := range m {
		w.str(k)
		w.str(v)
	}
}

func encodeWriterInput(in writerInput) []byte {
	w := &fuzzWriter{}
	w.str(in.file)
	w.byte(len(in.rules))
	for _, m := range in.rules {
		w.str(m.ID)
		w.str(m.Doc)
		w.str(m.HelpURI)
		w.byte(int(m.Default))
		if m.Properties == nil {
			w.byte(0)
		} else {
			w.byte(1)
			w.strMap(m.Properties)
		}
	}
	w.byte(len(in.fs))
	for _, f := range in.fs {
		flags := int(f.Severity) << flagSeverityShift
		if f.File != "" {
			flags |= flagFile
		}
		if f.Related != nil {
			flags |= flagRelated
		}
		if f.Detail != nil {
			flags |= flagDetail
		}
		if f.SuggestedFixes != nil {
			flags |= flagFixes
		}
		if f.Suppressed {
			flags |= flagSuppressed
		}
		w.byte(flags)
		w.str(f.Analyzer)
		if f.File != "" {
			w.str(f.File)
		}
		w.pos(f.Pos)
		w.pos(f.End)
		w.str(f.Message)
		if f.Related != nil {
			w.byte(len(f.Related))
			for _, r := range f.Related {
				w.str(r.File)
				w.pos(r.Pos)
				w.str(r.Message)
			}
		}
		if f.Detail != nil {
			w.strMap(f.Detail)
		}
		if f.SuggestedFixes != nil {
			w.byte(len(f.SuggestedFixes))
			for _, fix := range f.SuggestedFixes {
				w.str(fix.Message)
				if fix.Edits == nil {
					w.byte(0)
					continue
				}
				w.byte(len(fix.Edits) + 1)
				for _, e := range fix.Edits {
					w.pos(e.Pos)
					w.pos(e.End)
					w.str(e.NewText)
				}
			}
		}
	}
	return w.b
}

// goldenInputs rebuilds the writer inputs behind every vet golden from
// its SARIF rendering, which carries each finding whole (suppressed ones
// included) and the rules table; fig1's JSON golden adds its findings as
// JSON decodes them.
func goldenInputs(t testing.TB) []writerInput {
	paths, err := filepath.Glob(filepath.Join("..", "lint", "testdata", "*.sarif.golden"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no SARIF goldens (%v)", err)
	}
	level := map[string]Severity{"note": Info, "warning": Warning, "error": Error}
	var out []writerInput
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var log sarifLog
		if err := json.Unmarshal(data, &log); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		run := log.Runs[0]
		var in writerInput
		for _, r := range run.Tool.Driver.Rules {
			in.rules = append(in.rules, RuleMeta{ID: r.ID, Doc: r.ShortDescription.Text,
				HelpURI: r.HelpURI, Default: level[r.DefaultConfig.Level], Properties: r.Properties})
		}
		for _, res := range run.Results {
			loc := res.Locations[0].PhysicalLocation
			in.file = loc.ArtifactLocation.URI
			f := Finding{
				Analyzer: res.RuleID,
				Pos:      token.Pos{Line: loc.Region.StartLine, Col: loc.Region.StartColumn},
				End:      token.Pos{Line: loc.Region.EndLine, Col: loc.Region.EndColumn},
				Severity: level[res.Level],
				Message:  res.Message.Text,
				Detail:   res.Properties,
			}
			for _, rl := range res.RelatedLocations {
				r := rl.PhysicalLocation.Region
				f.Related = append(f.Related, Related{Pos: token.Pos{Line: r.StartLine, Col: r.StartColumn}, Message: rl.Message.Text})
			}
			for _, fx := range res.Fixes {
				fix := SuggestedFix{Message: fx.Description.Text, Edits: []TextEdit{}}
				for _, rep := range fx.ArtifactChanges[0].Replacements {
					e := TextEdit{
						Pos: token.Pos{Line: rep.DeletedRegion.StartLine, Col: rep.DeletedRegion.StartColumn},
						End: token.Pos{Line: rep.DeletedRegion.EndLine, Col: rep.DeletedRegion.EndColumn},
					}
					if rep.InsertedContent != nil {
						e.NewText = rep.InsertedContent.Text
					}
					fix.Edits = append(fix.Edits, e)
				}
				f.SuggestedFixes = append(f.SuggestedFixes, fix)
			}
			f.Suppressed = len(res.Suppressions) > 0
			in.fs = append(in.fs, f)
		}
		out = append(out, in)
	}
	data, err := os.ReadFile(filepath.Join("..", "lint", "testdata", "fig1.json.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var doc File
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return append(out, writerInput{file: doc.File, fs: doc.Findings})
}

// edgeInputs are hand-written cases for what the goldens never contain:
// HTML-significant and control characters, invalid UTF-8, the JavaScript
// line separators, nil against empty collections, per-finding files,
// suppressions with and without a justification, out-of-range severities
// and analyzers absent from the rules table.
func edgeInputs() []writerInput {
	odd := "a<b>&c \"q\" \\ \b\f\n\r\t\x00\x1f\x7f \xe2\x80\xa8 \xe2\x80\xa9 \xff\xfe bad\xe2\x80 δ·— 日本"
	return []writerInput{
		{file: "empty.loop"},
		{file: "", rules: nil, fs: []Finding{}},
		{file: odd, rules: []RuleMeta{
			{ID: "alpha", Doc: odd, HelpURI: odd, Default: Warning, Properties: map[string]string{odd: odd, "b": "", "a": "x"}},
			{ID: "alpha", Doc: "duplicate id, dropped"},
			{ID: "beta", Properties: map[string]string{}},
		}, fs: []Finding{
			{Analyzer: "alpha", File: odd, Pos: token.Pos{Line: 3, Col: 9}, End: token.Pos{Line: 3, Col: 12},
				Severity: Warning, Message: odd,
				Related: []Related{{File: "other.go", Pos: token.Pos{Line: 1}, Message: odd}, {Pos: token.Pos{Line: -2, Col: -3}}},
				Detail:  map[string]string{"zeta": odd, "alpha": "1", odd: "k", "suppressedBy": ""}},
			{Analyzer: "gamma", Severity: Severity(7), Message: "stray", Related: []Related{}, Detail: map[string]string{},
				SuggestedFixes: []SuggestedFix{{Message: "nil edits"}, {Message: "no edits", Edits: []TextEdit{}},
					{Message: odd, Edits: []TextEdit{{Pos: token.Pos{Line: 5, Col: 1}, NewText: odd}, {Pos: token.Pos{Line: 2}, End: token.Pos{Line: 4, Col: 0}}}}}},
			{Analyzer: "beta", Severity: Info, Message: "silenced", Suppressed: true,
				Detail: map[string]string{"suppressedBy": "//lint:ignore at line 6: " + odd, "suppressionKind": "external"}},
			{Analyzer: "beta", Severity: Error, Message: "silenced, no reason", Suppressed: true},
			{Analyzer: "", Severity: Severity(5), Message: ""},
		}},
	}
}

func writerInputs(t testing.TB) []writerInput {
	return append(goldenInputs(t), edgeInputs()...)
}

// checkWriters fails unless every writer reproduces its oracle's bytes
// for in; which selects the writers ("text", "json", "sarif").
func checkWriters(t *testing.T, in writerInput, which ...string) {
	t.Helper()
	for _, w := range which {
		var got, want bytes.Buffer
		var gotErr, wantErr error
		switch w {
		case "text":
			gotErr, wantErr = WriteText(&got, in.file, in.fs), oracleText(&want, in.file, in.fs)
		case "json":
			gotErr, wantErr = WriteJSON(&got, in.file, in.fs), oracleJSON(&want, in.file, in.fs)
		case "sarif":
			gotErr, wantErr = WriteSARIF(&got, in.file, in.rules, in.fs), oracleSARIF(&want, in.file, in.rules, in.fs)
		}
		if gotErr != nil || wantErr != nil {
			t.Fatalf("%s: errors %v / %v", w, gotErr, wantErr)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, o := got.String(), want.String()
			i := 0
			for i < len(g) && i < len(o) && g[i] == o[i] {
				i++
			}
			t.Fatalf("%s output differs from the encoding/json oracle at byte %d:\ngot:  %q\nwant: %q",
				w, i, g[max(0, i-80):min(len(g), i+80)], o[max(0, i-80):min(len(o), i+80)])
		}
	}
}

// TestWritersMatchOracle pins byte equality with the encoding/json and fmt
// renderers on every golden's findings and on the edge cases.
func TestWritersMatchOracle(t *testing.T) {
	for _, in := range writerInputs(t) {
		checkWriters(t, in, "text", "json", "sarif")
	}
}

// TestFuzzEncodingRoundTrip checks that the seed encoder and the fuzz
// decoder agree, so the fuzzers start from the goldens themselves.
func TestFuzzEncodingRoundTrip(t *testing.T) {
	for _, in := range writerInputs(t) {
		back := decodeWriterInput(encodeWriterInput(in))
		var a, b bytes.Buffer
		oracleSARIF(&a, in.file, in.rules, in.fs)
		oracleSARIF(&b, back.file, back.rules, back.fs)
		if a.String() != b.String() {
			t.Fatalf("seed for %q does not decode to its input", in.file)
		}
	}
}

func addSeeds(f *testing.F) {
	for _, in := range writerInputs(f) {
		f.Add(encodeWriterInput(in))
	}
}

// FuzzWriteJSON checks WriteJSON (and WriteText) against their oracles on
// findings built from fuzz bytes.
func FuzzWriteJSON(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWriters(t, decodeWriterInput(data), "json", "text")
	})
}

// FuzzWriteSARIF checks WriteSARIF against its oracle on findings and
// rules built from fuzz bytes.
func FuzzWriteSARIF(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWriters(t, decodeWriterInput(data), "sarif")
	})
}

// vetSized cycles the goldens' findings into a set of n, with the rules of
// the largest golden.
func vetSized(t testing.TB, n int) writerInput {
	var all []Finding
	var rules []RuleMeta
	for _, in := range goldenInputs(t) {
		all = append(all, in.fs...)
		if len(in.rules) > len(rules) {
			rules = in.rules
		}
	}
	out := writerInput{file: "examples/vet.loop", rules: rules}
	for i := 0; i < n; i++ {
		out.fs = append(out.fs, all[i%len(all)])
	}
	return out
}

// TestWriterAllocsConstant pins each writer's allocations: the output
// buffer, plus one sort scratch shared by every map of JSON and SARIF
// output, whether the run has 1 finding or a vet-serve-sized 288. A
// per-finding reflection or fmt path would scale with the findings.
func TestWriterAllocsConstant(t *testing.T) {
	one, many := vetSized(t, 1), vetSized(t, 288)
	for _, c := range []struct {
		name  string
		want  float64
		write func(writerInput)
	}{
		{"text", 1, func(in writerInput) { WriteText(io.Discard, in.file, in.fs) }},
		{"json", 2, func(in writerInput) { WriteJSON(io.Discard, in.file, in.fs) }},
		{"sarif", 2, func(in writerInput) { WriteSARIF(io.Discard, in.file, in.rules, in.fs) }},
	} {
		a1 := testing.AllocsPerRun(20, func() { c.write(one) })
		aN := testing.AllocsPerRun(20, func() { c.write(many) })
		if a1 != c.want || aN != c.want {
			t.Errorf("%s: %v allocs for 1 finding, %v for %d; want %v for both",
				c.name, a1, aN, len(many.fs), c.want)
		}
	}
}

// TestEdgeInputsCoverEscapes guards the edge cases' purpose: the oracle
// must actually escape something in them.
func TestEdgeInputsCoverEscapes(t *testing.T) {
	in := edgeInputs()[2]
	var b bytes.Buffer
	oracleJSON(&b, in.file, in.fs)
	for _, esc := range []string{`\u003c`, `\u0026`, `\ufffd`, `\u2028`, `\u2029`, `\b`, `\u0000`, `"edits": null`, `"edits": []`} {
		if !strings.Contains(b.String(), esc) {
			t.Errorf("edge cases render no %s", esc)
		}
	}
}
