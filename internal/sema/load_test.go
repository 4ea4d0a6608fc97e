package sema

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/token"
)

// TestDiagnostics pins the error walker: wrapped positioned errors keep
// their position, and any other error becomes one diagnostic without a
// position, rendered without one.
func TestDiagnostics(t *testing.T) {
	at := token.Pos{Line: 2, Col: 3}
	got := Diagnostics(fmt.Errorf("context: %w", &Error{Pos: at, Msg: "bad"}))
	if want := []Diagnostic{{Pos: at, Msg: "bad"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("wrapped *Error: %+v, want %+v", got, want)
	}
	got = Diagnostics(errors.New("no position"))
	if want := []Diagnostic{{Msg: "no position"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("plain error: %+v, want %+v", got, want)
	}
	f := &Failure{Stage: "normalize", Errs: []Diagnostic{{Pos: at, Msg: "bad"}, {Msg: "no position"}}}
	lines := f.Lines("x.loop")
	if want := []string{"x.loop:2:3: normalize: bad", "x.loop: normalize: no position"}; !reflect.DeepEqual(lines, want) {
		t.Errorf("Lines: %q, want %q", lines, want)
	}
}

// TestLoad checks that Load normalizes a valid source and names the stage
// of each refusal.
func TestLoad(t *testing.T) {
	prog, fail := Load([]byte("do i = 2, 9\n  A[i] := 0\nenddo\n"), nil)
	if fail != nil {
		t.Fatalf("valid source refused: %v", fail.Lines("x"))
	}
	if got, want := ast.ProgramString(prog), "do i = 1, 8\n  A[i + 1] := 0\nenddo\n"; got != want {
		t.Errorf("Load returned\n%s\nwant the normalized\n%s", got, want)
	}
	for src, stage := range map[string]string{
		"do i = 1,\nenddo\n":                   "parse",
		"do i = 1, 4\n  i := 0\nenddo\n":       "check",
		"do i = 1, 4, k\n  A[i] := 0\nenddo\n": "normalize",
	} {
		prog, fail := Load([]byte(src), nil)
		if prog != nil || fail == nil || fail.Stage != stage || len(fail.Errs) == 0 {
			t.Errorf("%q: program %v, failure %+v; want a %s failure", src, prog != nil, fail, stage)
		}
	}
}
