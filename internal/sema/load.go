package sema

import (
	"errors"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/token"
)

// Diagnostic is one front-end error. Pos is the zero Pos when the error
// carries no position.
type Diagnostic struct {
	Pos token.Pos
	Msg string
}

// Diagnostics unpacks err into its positioned errors: every entry of a
// parser.ErrorList, a *parser.Error, or an *Error. Any other error is one
// Diagnostic without a position, with the error's text as its message.
func Diagnostics(err error) []Diagnostic {
	var pl parser.ErrorList
	var pe *parser.Error
	var se *Error
	switch {
	case errors.As(err, &pl):
		out := make([]Diagnostic, len(pl))
		for i, e := range pl {
			out[i] = Diagnostic{Pos: e.Pos, Msg: e.Msg}
		}
		return out
	case errors.As(err, &pe):
		return []Diagnostic{{Pos: pe.Pos, Msg: pe.Msg}}
	case errors.As(err, &se):
		return []Diagnostic{{Pos: se.Pos, Msg: se.Msg}}
	}
	return []Diagnostic{{Msg: err.Error()}}
}

// Failure is the front end's refusal of a source: the stage that rejected
// it ("parse", "check" or "normalize") and every error that stage
// reported, in order.
type Failure struct {
	Stage string
	Errs  []Diagnostic
}

// Lines renders each error as "name:line:col: stage: message", or
// "name: stage: message" for an error without a position. These are the
// lines the CLI prints to stderr, /v1/analyze returns with status 422 and
// /v1/batch lists under "errors".
func (f *Failure) Lines(name string) []string {
	out := make([]string, len(f.Errs))
	for i, d := range f.Errs {
		if d.Pos.IsValid() {
			out[i] = name + ":" + d.Pos.String() + ": " + f.Stage + ": " + d.Msg
		} else {
			out[i] = name + ": " + f.Stage + ": " + d.Msg
		}
	}
	return out
}

// Load runs the front end over one source: parse, Check, Normalize. It
// returns the normalized program, or nil and the Failure of the first
// stage that rejected the source. Identifiers are interned in in (a fresh
// table when nil), so callers can share one table across programs; src
// must not be mutated while the program is in use.
func Load(src []byte, in *token.Interner) (*ast.Program, *Failure) {
	prog, err := parser.ParseBytes(src, in)
	if err != nil {
		return nil, &Failure{Stage: "parse", Errs: Diagnostics(err)}
	}
	if _, errs := CheckAll(prog); len(errs) > 0 {
		f := &Failure{Stage: "check"}
		for _, e := range errs {
			f.Errs = append(f.Errs, Diagnostics(e)...)
		}
		return nil, f
	}
	norm, err := Normalize(prog)
	if err != nil {
		return nil, &Failure{Stage: "normalize", Errs: Diagnostics(err)}
	}
	return norm, nil
}
