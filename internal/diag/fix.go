package diag

import (
	"sort"
	"strings"

	"repro/internal/token"
)

// LineIndex maps 1-based line numbers to byte offsets of line starts. One
// index serves every line query on its source, so callers that ask many
// (the analyzers of one vet run) index the source once.
type LineIndex struct {
	src    string
	starts []int // starts[k] = offset of line k+1
}

// NewLineIndex indexes the line starts of src.
func NewLineIndex(src string) *LineIndex {
	li := &LineIndex{src: src, starts: []int{0}}
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			li.starts = append(li.starts, i+1)
		}
	}
	return li
}

// offset converts a 1-based position to a byte offset, clamped to the
// source. ok is false when the line does not exist (columns clamp to the
// line end: analyzers position on characters, trailing-edge columns are
// legitimate).
func (li *LineIndex) offset(p token.Pos) (int, bool) {
	if p.Line < 1 || p.Line > len(li.starts) {
		return 0, false
	}
	start := li.starts[p.Line-1]
	end := len(li.src)
	if p.Line < len(li.starts) {
		end = li.starts[p.Line] // includes the newline of line p.Line
	}
	off := start + p.Col - 1
	if p.Col < 1 {
		return 0, false
	}
	if off > end {
		off = end
	}
	return off, true
}

// span resolves an edit's byte range. An invalid End means a pure
// insertion at Pos.
func (li *LineIndex) span(e TextEdit) (lo, hi int, ok bool) {
	lo, ok = li.offset(e.Pos)
	if !ok {
		return 0, 0, false
	}
	if !e.End.IsValid() {
		return lo, lo, true
	}
	hi, ok = li.offset(e.End)
	if !ok || hi < lo {
		return 0, 0, false
	}
	return lo, hi, true
}

// resolvedEdit is a TextEdit with byte offsets resolved.
type resolvedEdit struct {
	lo, hi int
	text   string
}

// conflicts reports whether two resolved edits overlap. Two pure
// insertions at the same offset conflict (their order is ambiguous); an
// insertion at the boundary of a replacement does not.
func conflicts(a, b resolvedEdit) bool {
	if a.lo == a.hi && b.lo == b.hi {
		return a.lo == b.lo
	}
	return a.lo < b.hi && b.lo < a.hi
}

// FixResult describes one ApplyFixes pass.
type FixResult struct {
	// Src is the source after the applied edits.
	Src string
	// Applied counts the findings whose fix was applied in full.
	Applied int
	// Skipped counts findings with a fix that was dropped because an edit
	// conflicted with an earlier-applied fix or had an unresolvable
	// position.
	Skipped int
}

// ApplyFixes applies the first suggested fix of each finding to src,
// processing findings in their deterministic sorted order. A fix is
// applied atomically: if any of its edits conflicts with an
// already-accepted edit (or falls outside the source), the whole fix is
// skipped — a later pass over the re-analyzed source picks it up, which is
// what makes `vet -fix` converge to a fixpoint.
func ApplyFixes(src string, fs []Finding) FixResult {
	li := NewLineIndex(src)
	var accepted []resolvedEdit
	res := FixResult{Src: src}
	for _, f := range fs {
		if f.Suppressed || len(f.SuggestedFixes) == 0 {
			continue
		}
		fix := f.SuggestedFixes[0]
		if len(fix.Edits) == 0 {
			continue
		}
		batch := make([]resolvedEdit, 0, len(fix.Edits))
		ok := true
		for _, e := range fix.Edits {
			lo, hi, edOK := li.span(e)
			if !edOK {
				ok = false
				break
			}
			re := resolvedEdit{lo: lo, hi: hi, text: e.NewText}
			for _, prev := range accepted {
				if conflicts(prev, re) {
					ok = false
					break
				}
			}
			for _, prev := range batch {
				if conflicts(prev, re) {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
			batch = append(batch, re)
		}
		if !ok {
			res.Skipped++
			continue
		}
		accepted = append(accepted, batch...)
		res.Applied++
	}
	if len(accepted) == 0 {
		return res
	}
	// Apply back to front so earlier offsets stay valid. Insertions at
	// equal offsets cannot co-exist (conflicts rejects them), so the sort
	// is unambiguous.
	sort.Slice(accepted, func(i, j int) bool {
		if accepted[i].lo != accepted[j].lo {
			return accepted[i].lo > accepted[j].lo
		}
		return accepted[i].hi > accepted[j].hi
	})
	out := src
	for _, e := range accepted {
		out = out[:e.lo] + e.text + out[e.hi:]
	}
	res.Src = out
	return res
}

// Line returns the 1-based line's text without its newline, and whether
// the line exists. Analyzers use it to check that a statement owns its
// whole source line before suggesting a line deletion.
func (li *LineIndex) Line(line int) (string, bool) {
	if line < 1 || line > len(li.starts) {
		return "", false
	}
	start := li.starts[line-1]
	end := len(li.src)
	if line < len(li.starts) {
		end = li.starts[line] - 1 // strip the newline
	}
	return li.src[start:end], true
}

// DeleteLineEdit builds the edit removing an entire source line (newline
// included when present). ok is false when the line does not exist.
func (li *LineIndex) DeleteLineEdit(line int) (TextEdit, bool) {
	if line < 1 || line > len(li.starts) {
		return TextEdit{}, false
	}
	if line < len(li.starts) {
		return TextEdit{
			Pos: token.Pos{Line: line, Col: 1},
			End: token.Pos{Line: line + 1, Col: 1},
		}, true
	}
	// Last line: delete to end of text.
	text, _ := li.Line(line)
	return TextEdit{
		Pos: token.Pos{Line: line, Col: 1},
		End: token.Pos{Line: line, Col: len(text) + 1},
	}, true
}

// InsertLinesEdit builds the edit inserting the given lines (each without
// trailing newline) immediately above the 1-based line, indented like it.
func (li *LineIndex) InsertLinesEdit(line int, lines []string) (TextEdit, bool) {
	text, ok := li.Line(line)
	if !ok {
		return TextEdit{}, false
	}
	indent := text[:len(text)-len(strings.TrimLeft(text, " \t"))]
	var b strings.Builder
	for _, ln := range lines {
		b.WriteString(indent)
		b.WriteString(ln)
		b.WriteByte('\n')
	}
	return TextEdit{Pos: token.Pos{Line: line, Col: 1}, NewText: b.String()}, true
}
