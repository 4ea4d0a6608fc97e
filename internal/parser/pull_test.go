package parser

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestEarlyStopStillScansToEOF: parsing stops at a stray top-level enddo,
// but the lexical errors and lint directives after it are still collected,
// and every lexical error is listed before the syntax errors.
func TestEarlyStopStillScansToEOF(t *testing.T) {
	prog, err := Parse("x := 1\nenddo\ny := $\n//lint:ignore race why\nz := @\n")
	var list ErrorList
	if !errors.As(err, &list) {
		t.Fatalf("err = %v, want an ErrorList", err)
	}
	var got []string
	for _, e := range list {
		got = append(got, e.Error())
	}
	want := []string{
		"3:6: illegal character '$'",
		"5:6: illegal character '@'",
		"2:1: unexpected enddo at top level",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("errors:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if len(prog.Directives) != 1 || prog.Directives[0].Pos.Line != 4 || prog.Directives[0].IDs[0] != "race" {
		t.Errorf("directives = %+v, want the lint:ignore race on line 4", prog.Directives)
	}
}

// TestParseAllocationBound: the parser pulls tokens one at a time, so
// parsing allocates the AST and little else. A token slice built up front
// (about 48 bytes per two source bytes) breaks the bound.
func TestParseAllocationBound(t *testing.T) {
	var b strings.Builder
	for l := 0; l < 20; l++ {
		fmt.Fprintf(&b, "do i = 1, N\n")
		for s := 0; s < 50; s++ {
			fmt.Fprintf(&b, "  A%d[i + %d] := A%d[2 * i - %d] + B[i] * x%d\n", s%4, s%7, (s+1)%4, s%5, s%3)
		}
		b.WriteString("enddo\n")
	}
	src := b.String()
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Parse(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*len(src))
	t.Logf("%d source bytes, %.1f bytes allocated per source byte", len(src), perByte)
	if perByte > 32 {
		t.Errorf("Parse allocates %.1f bytes per source byte, want at most 32", perByte)
	}
}
