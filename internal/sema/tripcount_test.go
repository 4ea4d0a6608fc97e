package sema

import (
	"fmt"
	"strings"
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

// TestNormalizeRefusesSelfReadLowerBound: a lower bound that reads the
// loop's own induction variable reads its value before the loop, which no
// normalized body can name (do j = j, N, -1 once became do j = 1, ... with
// A[j] rewritten to A[1]). Normalize and Check both refuse such a loop at
// the variable's position. The same bounds over a scalar the loop does not
// assign normalize with their trip counts intact.
func TestNormalizeRefusesSelfReadLowerBound(t *testing.T) {
	for _, lo := range []string{"j", "j + 1", "2 * j - 3", "N - j", "A[j]"} {
		for _, step := range []int64{1, 2, 3, -1, -2, -3} {
			src := fmt.Sprintf("do i = 1, 2\n do j = %s, N, %d\n  B[j] := B[j] + j + 100\n  C[0] := C[0] + 1\n enddo\nenddo\n", lo, step)
			prog := parser.MustParse(src)
			want := "2:" + fmt.Sprint(9+strings.Index(lo, "j")) + ": loop lower bound reads its own induction variable j"
			if _, err := Normalize(prog); err == nil || err.Error() != want {
				t.Errorf("Normalize of\n%s= %v, want %q", src, err, want)
			}
			if _, err := Check(prog); err == nil || err.Error() != want {
				t.Errorf("Check of\n%s= %v, want %q", src, err, want)
			}
			free := strings.ReplaceAll(src, "= "+lo+",", "= "+strings.ReplaceAll(lo, "j", "J")+",")
			for _, v := range []int64{-4, 0, 2, 5, 9} {
				init := interp.NewState()
				init.Scalars["J"], init.Scalars["N"] = v, 2
				runBoth(t, free, init)
			}
		}
	}
}
