package sema

import (
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/parser"
)

// runBoth interprets a program before and after normalization from the
// same initial state and fails when the final arrays differ.
func runBoth(t *testing.T, src string, init *interp.State) {
	t.Helper()
	prog := parser.MustParse(src)
	norm, err := Normalize(prog)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := interp.Run(prog, init, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := interp.Run(norm, init, nil)
	if err != nil {
		t.Fatalf("%v\n%s", err, ast.ProgramString(norm))
	}
	if d := interp.DiffArrays(want, got); d != "" {
		t.Fatalf("normalization changed the result: %s\nsource:\n%s\nnormalized:\n%s", d, src, ast.ProgramString(norm))
	}
}

// TestNormalizeKeepsTripCounts runs every loop shape with constant and
// symbolic bounds in [-6, 6] and steps ±1..±3, empty ones included, before
// and after normalization. C[0] counts the iterations.
func TestNormalizeKeepsTripCounts(t *testing.T) {
	for lo := int64(-6); lo <= 6; lo++ {
		for hi := int64(-6); hi <= 6; hi++ {
			for _, step := range []int64{1, 2, 3, -1, -2, -3} {
				body := "  A[i] := A[i] + i + 100\n  C[0] := C[0] + 1\nenddo\n"
				runBoth(t, fmt.Sprintf("do i = %d, %d, %d\n%s", lo, hi, step, body), nil)
				init := interp.NewState()
				init.Scalars["L"], init.Scalars["H"] = lo, hi
				runBoth(t, fmt.Sprintf("do i = L, H, %d\n%s", step, body), init)
			}
		}
	}
}

// TestNormalizeKeepsNestTripCounts: a 2-deep nest whose inner bounds use
// the outer variable, so some inner loops are empty and some are not.
func TestNormalizeKeepsNestTripCounts(t *testing.T) {
	for _, s1 := range []int64{1, 2, -1, 3} {
		for _, s2 := range []int64{1, 2, -2, 3} {
			src := fmt.Sprintf("do i = -4, 4, %d\n do j = i - 2, 3 - i, %d\n  B[i, j] := B[i, j] + i * j + 7\n  C[0] := C[0] + 1\n enddo\nenddo\n", s1, s2)
			runBoth(t, src, nil)
		}
	}
}
