package lexer

import (
	"strings"
	"testing"

	"repro/internal/token"
)

// scanDirectives lexes src to EOF and returns the collected directives and
// lexical errors.
func scanDirectives(src string) ([]token.Directive, []*Error) {
	l := New(src)
	scanAll(l)
	return l.Directives(), l.Errors()
}

func TestDirectiveWellFormed(t *testing.T) {
	dirs, errs := scanDirectives("a := 1\n//lint:ignore race single-threaded driver\nb := 2\n")
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(dirs) != 1 {
		t.Fatalf("directives = %d, want 1", len(dirs))
	}
	d := dirs[0]
	if d.Pos.Line != 2 || d.Pos.Col != 1 {
		t.Errorf("pos = %v, want 2:1", d.Pos)
	}
	if len(d.IDs) != 1 || d.IDs[0] != "race" {
		t.Errorf("IDs = %v, want [race]", d.IDs)
	}
	if d.Reason != "single-threaded driver" {
		t.Errorf("reason = %q", d.Reason)
	}
}

func TestDirectiveBangMarker(t *testing.T) {
	dirs, errs := scanDirectives("!lint:ignore uninit seeded by caller\nA[i] := 1\n")
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(dirs) != 1 || dirs[0].IDs[0] != "uninit" {
		t.Fatalf("directives = %v", dirs)
	}
}

func TestDirectiveMultipleIDs(t *testing.T) {
	// The ID list is space-free; the first space separates it from the
	// reason (//lint:ignore analyzer[,analyzer...] reason).
	dirs, errs := scanDirectives("//lint:ignore race,uninit,deadstore all vetted manually\n")
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(dirs) != 1 {
		t.Fatalf("directives = %d, want 1", len(dirs))
	}
	got := strings.Join(dirs[0].IDs, ",")
	if got != "race,uninit,deadstore" {
		t.Errorf("IDs = %q, want race,uninit,deadstore", got)
	}
	if dirs[0].Reason != "all vetted manually" {
		t.Errorf("reason = %q", dirs[0].Reason)
	}
}

func TestDirectiveTrailing(t *testing.T) {
	dirs, errs := scanDirectives("A[i] := B[i] //lint:ignore uninit B seeded above\n")
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(dirs) != 1 || dirs[0].Pos.Line != 1 {
		t.Fatalf("trailing directive not anchored to its line: %v", dirs)
	}
}

func TestDirectiveErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown_verb", "//lint:fixme race later\n", "unknown lint directive"},
		{"no_args", "//lint:ignore\n", "malformed lint:ignore"},
		{"ids_only", "//lint:ignore race\n", "malformed lint:ignore"},
		{"blank_reason", "//lint:ignore race    \n", "malformed lint:ignore"},
		{"empty_id", "//lint:ignore race,,uninit because\n", "empty analyzer ID"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dirs, errs := scanDirectives(tc.src)
			if len(dirs) != 0 {
				t.Errorf("malformed directive recorded: %v", dirs)
			}
			if len(errs) != 1 || !strings.Contains(errs[0].Msg, tc.wantErr) {
				t.Errorf("errors = %v, want one containing %q", errs, tc.wantErr)
			}
		})
	}
}

func TestOrdinaryCommentsNotDirectives(t *testing.T) {
	src := "a := 1 ! lintish prose comment\n// lint with a space is prose\n//linting is fun\nb := 2\n"
	dirs, errs := scanDirectives(src)
	if len(errs) != 0 {
		t.Fatalf("prose comments reported errors: %v", errs)
	}
	if len(dirs) != 0 {
		t.Errorf("prose comments recorded as directives: %v", dirs)
	}
}
