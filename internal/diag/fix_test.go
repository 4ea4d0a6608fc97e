package diag

import (
	"testing"

	"repro/internal/token"
)

func TestLineIndexOffsets(t *testing.T) {
	li := NewLineIndex("ab\ncde\n\nf")
	cases := []struct {
		pos  token.Pos
		want int
		ok   bool
	}{
		{pos(1, 1), 0, true},
		{pos(1, 3), 2, true},  // trailing edge of line 1
		{pos(1, 99), 3, true}, // clamps to the line end (incl. newline)
		{pos(2, 1), 3, true},
		{pos(2, 4), 6, true},
		{pos(3, 1), 7, true}, // empty line
		{pos(4, 1), 8, true},
		{pos(4, 2), 9, true}, // end of unterminated last line
		{pos(5, 1), 0, false},
		{pos(0, 1), 0, false},
		{pos(1, 0), 0, false},
	}
	for _, tc := range cases {
		got, ok := li.offset(tc.pos)
		if got != tc.want || ok != tc.ok {
			t.Errorf("offset(%v) = (%d, %v), want (%d, %v)", tc.pos, got, ok, tc.want, tc.ok)
		}
	}
}

func TestLineAt(t *testing.T) {
	src := "first\nsecond\nlast"
	for line, want := range map[int]string{1: "first", 2: "second", 3: "last"} {
		if got, ok := NewLineIndex(src).Line(line); !ok || got != want {
			t.Errorf("Line(%d) = (%q, %v), want (%q, true)", line, got, ok, want)
		}
	}
	if _, ok := NewLineIndex(src).Line(4); ok {
		t.Error("Line(4) reported a nonexistent line")
	}
}

func TestDeleteLineEdit(t *testing.T) {
	src := "keep\ndrop\nkeep2"
	// Middle line: deletes through the newline.
	e, ok := NewLineIndex(src).DeleteLineEdit(2)
	if !ok {
		t.Fatal("middle line not found")
	}
	res := ApplyFixes(src, []Finding{{SuggestedFixes: []SuggestedFix{{Edits: []TextEdit{e}}}}})
	if res.Src != "keep\nkeep2" || res.Applied != 1 {
		t.Errorf("middle deletion: %q (applied %d)", res.Src, res.Applied)
	}
	// Last line without trailing newline: deletes to end of text.
	e, ok = NewLineIndex(src).DeleteLineEdit(3)
	if !ok {
		t.Fatal("last line not found")
	}
	res = ApplyFixes(src, []Finding{{SuggestedFixes: []SuggestedFix{{Edits: []TextEdit{e}}}}})
	if res.Src != "keep\ndrop\n" {
		t.Errorf("last-line deletion: %q", res.Src)
	}
	if _, ok := NewLineIndex(src).DeleteLineEdit(9); ok {
		t.Error("DeleteLineEdit accepted a nonexistent line")
	}
}

func TestInsertLinesEdit(t *testing.T) {
	src := "do i = 1, 5\n    A[i] := 0\nenddo\n"
	e, ok := NewLineIndex(src).InsertLinesEdit(2, []string{"B[i] := 0"})
	if !ok {
		t.Fatal("line 2 not found")
	}
	res := ApplyFixes(src, []Finding{{SuggestedFixes: []SuggestedFix{{Edits: []TextEdit{e}}}}})
	want := "do i = 1, 5\n    B[i] := 0\n    A[i] := 0\nenddo\n"
	if res.Src != want {
		t.Errorf("insertion did not copy the target line's indentation:\n%q", res.Src)
	}
}

// TestApplyFixesConflictAtomicity verifies a fix whose edits overlap an
// already-accepted fix is skipped in full — no partial application — and
// counted in Skipped.
func TestApplyFixesConflictAtomicity(t *testing.T) {
	src := "aaaa\nbbbb\ncccc\n"
	del2, _ := NewLineIndex(src).DeleteLineEdit(2)
	fs := []Finding{
		{SuggestedFixes: []SuggestedFix{{Edits: []TextEdit{del2}}}},
		// Two edits: one harmless insertion at line 1, one overlapping the
		// accepted deletion. The harmless half must NOT apply.
		{SuggestedFixes: []SuggestedFix{{Edits: []TextEdit{
			{Pos: pos(1, 1), NewText: "X\n"},
			{Pos: pos(2, 2), End: pos(2, 4), NewText: "Y"},
		}}}},
	}
	res := ApplyFixes(src, fs)
	if res.Applied != 1 || res.Skipped != 1 {
		t.Errorf("applied/skipped = %d/%d, want 1/1", res.Applied, res.Skipped)
	}
	if res.Src != "aaaa\ncccc\n" {
		t.Errorf("conflicting fix partially applied: %q", res.Src)
	}
}

// TestApplyFixesSameOffsetInsertions verifies two pure insertions at the
// same offset conflict (their order would be ambiguous), while an
// insertion at the boundary of a replacement does not.
func TestApplyFixesSameOffsetInsertions(t *testing.T) {
	src := "one\ntwo\n"
	fs := []Finding{
		{SuggestedFixes: []SuggestedFix{{Edits: []TextEdit{{Pos: pos(2, 1), NewText: "A\n"}}}}},
		{SuggestedFixes: []SuggestedFix{{Edits: []TextEdit{{Pos: pos(2, 1), NewText: "B\n"}}}}},
	}
	res := ApplyFixes(src, fs)
	if res.Applied != 1 || res.Skipped != 1 {
		t.Errorf("same-offset insertions: applied/skipped = %d/%d, want 1/1", res.Applied, res.Skipped)
	}
	fs = []Finding{
		{SuggestedFixes: []SuggestedFix{{Edits: []TextEdit{{Pos: pos(1, 1), End: pos(1, 4), NewText: "ONE"}}}}},
		{SuggestedFixes: []SuggestedFix{{Edits: []TextEdit{{Pos: pos(1, 4), NewText: "!"}}}}},
	}
	res = ApplyFixes(src, fs)
	if res.Applied != 2 || res.Src != "ONE!\ntwo\n" {
		t.Errorf("boundary insertion rejected: applied=%d src=%q", res.Applied, res.Src)
	}
}

// TestApplyFixesSkipsSuppressed verifies suppressed findings' fixes are
// never applied: a silenced diagnostic must not edit code.
func TestApplyFixesSkipsSuppressed(t *testing.T) {
	src := "x\ny\n"
	del, _ := NewLineIndex(src).DeleteLineEdit(1)
	fs := []Finding{{
		Suppressed:     true,
		SuggestedFixes: []SuggestedFix{{Edits: []TextEdit{del}}},
	}}
	res := ApplyFixes(src, fs)
	if res.Applied != 0 || res.Src != src {
		t.Errorf("suppressed finding's fix applied: %q", res.Src)
	}
}

// TestApplyFixesUnresolvablePosition verifies a fix pointing outside the
// source is skipped, not applied at a clamped location.
func TestApplyFixesUnresolvablePosition(t *testing.T) {
	src := "x\n"
	fs := []Finding{{SuggestedFixes: []SuggestedFix{{Edits: []TextEdit{
		{Pos: pos(9, 1), NewText: "nope"},
	}}}}}
	res := ApplyFixes(src, fs)
	if res.Applied != 0 || res.Skipped != 1 || res.Src != src {
		t.Errorf("out-of-range fix: applied=%d skipped=%d src=%q", res.Applied, res.Skipped, res.Src)
	}
}
