package interp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/parser"
)

func TestSimpleAssignments(t *testing.T) {
	prog := parser.MustParse("a := 2 + 3 * 4\nb := a - 1")
	st, _, err := Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scalars["a"] != 14 || st.Scalars["b"] != 13 {
		t.Fatalf("a=%d b=%d", st.Scalars["a"], st.Scalars["b"])
	}
}

func TestLoopSum(t *testing.T) {
	prog := parser.MustParse(`
s := 0
do i = 1, 10
  s := s + i
enddo
`)
	st, stats, err := Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scalars["s"] != 55 {
		t.Fatalf("s = %d, want 55", st.Scalars["s"])
	}
	if stats.Iterations != 10 {
		t.Errorf("iterations = %d, want 10", stats.Iterations)
	}
}

func TestArrayReadWrite(t *testing.T) {
	prog := parser.MustParse(`
do i = 1, 5
  A[i] := i * i
enddo
x := A[3]
`)
	st, stats, err := Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scalars["x"] != 9 {
		t.Fatalf("x = %d, want 9", st.Scalars["x"])
	}
	if st.GetArray("A", 5) != 25 {
		t.Fatalf("A[5] = %d, want 25", st.GetArray("A", 5))
	}
	if stats.ArrayStores["A"] != 5 || stats.ArrayLoads["A"] != 1 {
		t.Errorf("stores=%d loads=%d, want 5/1", stats.ArrayStores["A"], stats.ArrayLoads["A"])
	}
}

func TestFig5Semantics(t *testing.T) {
	// A[i+2] := A[i] + X with A[1]=A[2]=1, X=0 produces a shifted Fibonacci
	// flavor: every element copies its grandparent.
	prog := parser.MustParse(`
do i = 1, 10
  A[i+2] := A[i] + X
enddo
`)
	init := NewState()
	init.SetArray("A", 1, 7)
	init.SetArray("A", 2, 9)
	init.Scalars["X"] = 1
	st, stats, err := Run(prog, init, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A[3] = A[1]+1 = 8; A[5] = A[3]+1 = 9; A[7] = 10 …
	if got := st.GetArray("A", 7); got != 10 {
		t.Fatalf("A[7] = %d, want 10", got)
	}
	if got := st.GetArray("A", 12); got != 9+5 {
		t.Fatalf("A[12] = %d, want 14", got)
	}
	if stats.ArrayLoads["A"] != 10 || stats.ArrayStores["A"] != 10 {
		t.Errorf("loads/stores = %d/%d, want 10/10", stats.ArrayLoads["A"], stats.ArrayStores["A"])
	}
}

func TestConditional(t *testing.T) {
	prog := parser.MustParse(`
do i = 1, 10
  if i % 2 == 0 then
    A[i] := 1
  else
    A[i] := 2
  endif
enddo
`)
	st, _, err := Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.GetArray("A", 4) != 1 || st.GetArray("A", 7) != 2 {
		t.Fatalf("A[4]=%d A[7]=%d", st.GetArray("A", 4), st.GetArray("A", 7))
	}
}

func TestMultiDim(t *testing.T) {
	prog := parser.MustParse(`
do j = 1, 3
  do i = 1, 3
    X[i, j] := i * 10 + j
  enddo
enddo
y := X[2, 3]
`)
	st, _, err := Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scalars["y"] != 23 {
		t.Fatalf("y = %d, want 23", st.Scalars["y"])
	}
}

func TestIVScopedToLoop(t *testing.T) {
	prog := parser.MustParse(`
i := 99
do i = 1, 5
  A[i] := i
enddo
x := i
`)
	st, _, err := Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scalars["x"] != 99 {
		t.Fatalf("induction variable leaked: x = %d, want 99", st.Scalars["x"])
	}
}

func TestNegativeStepLoop(t *testing.T) {
	prog := parser.MustParse(`
do i = 5, 1, -1
  A[i] := 6 - i
enddo
`)
	st, _, err := Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.GetArray("A", 5) != 1 || st.GetArray("A", 1) != 5 {
		t.Fatal("negative step wrong")
	}
}

func TestZeroTripLoop(t *testing.T) {
	prog := parser.MustParse("do i = 5, 4\n A[i] := 1\nenddo")
	st, stats, err := Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	written := 0
	st.EachCell("A", func([]int64, int64) { written++ })
	if written != 0 || stats.Iterations != 0 {
		t.Fatal("zero-trip loop executed")
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand of `and` must not evaluate when the left is false:
	// otherwise the division would trap.
	prog := parser.MustParse(`
z := 0
if z != 0 and 10 / z > 1 then
  a := 1
endif
a := a + 2
`)
	st, _, err := Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scalars["a"] != 2 {
		t.Fatalf("a = %d, want 2", st.Scalars["a"])
	}
}

func TestDivisionByZeroError(t *testing.T) {
	prog := parser.MustParse("a := 1 / z")
	if _, _, err := Run(prog, nil, nil); err == nil {
		t.Fatal("expected division-by-zero error")
	}
}

func TestStepLimit(t *testing.T) {
	prog := parser.MustParse("do i = 1, 1000000\n A[1] := i\nenddo")
	_, _, err := Run(prog, nil, &Options{MaxSteps: 1000})
	if err == nil {
		t.Fatal("expected step limit error")
	}
}

func TestDiffArrays(t *testing.T) {
	a, b := NewState(), NewState()
	a.SetArray("A", 1, 5)
	b.SetArray("A", 1, 5)
	if !ArraysEqual(a, b) {
		t.Fatal("equal states reported different")
	}
	b.SetArray("A", 2, 1)
	if ArraysEqual(a, b) {
		t.Fatal("different states reported equal")
	}
	// Zero-valued entries count as absent.
	c, d := NewState(), NewState()
	c.SetArray("A", 3, 0)
	if !ArraysEqual(c, d) {
		t.Fatal("explicit zero must equal missing")
	}
}

func TestCloneIsolation(t *testing.T) {
	a := NewState()
	a.SetArray("A", 1, 5)
	a.Scalars["x"] = 1
	b := a.Clone()
	b.SetArray("A", 1, 9)
	b.Scalars["x"] = 2
	if a.GetArray("A", 1) != 5 || a.Scalars["x"] != 1 {
		t.Fatal("clone not isolated")
	}
}

func TestCellTableGrowsAndKeepsRanksApart(t *testing.T) {
	st := NewState()
	for i := int64(-50); i < 200; i++ {
		st.SetArrayN("A", []int64{i, -i}, i*3)
	}
	st.SetArray("A", 7, 99) // another rank under the same name is another cell
	for i := int64(-50); i < 200; i++ {
		if got := st.GetArrayN("A", []int64{i, -i}); got != i*3 {
			t.Fatalf("A[%d, %d] = %d, want %d", i, -i, got, i*3)
		}
	}
	if got := st.GetArray("A", 7); got != 99 {
		t.Fatalf("A[7] = %d, want 99", got)
	}
	if got := st.GetArrayN("A", []int64{7, 0}); got != 0 {
		t.Fatalf("unwritten A[7, 0] = %d, want 0", got)
	}
	n := 0
	st.EachCell("A", func([]int64, int64) { n++ })
	if n != 251 {
		t.Fatalf("EachCell visited %d cells, want 251", n)
	}
	if d := DiffArrays(st, st.Clone()); d != "" {
		t.Fatalf("clone differs: %s", d)
	}
}

func TestSeedReadsThroughUnwrittenCells(t *testing.T) {
	seed := NewSeed()
	seed.Box("A", []int64{1, -4}, []int64{3, 20})
	st := NewSeededState(seed)
	inside := st.GetArrayN("A", []int64{2, 5})
	if inside < 1 || inside > 997 {
		t.Fatalf("boxed cell reads %d, want a value in 1..997", inside)
	}
	if got := st.GetArrayN("A", []int64{4, 5}); got != 0 {
		t.Fatalf("cell outside the box reads %d, want 0", got)
	}
	if got := st.GetArray("A", 2); got != 0 {
		t.Fatalf("cell of another rank reads %d, want 0", got)
	}
	st.SetArrayN("A", []int64{2, 5}, inside+1)
	if got := st.GetArrayN("A", []int64{2, 5}); got != inside+1 {
		t.Fatalf("written cell reads %d, want %d", got, inside+1)
	}
	if got := st.Clone().GetArrayN("A", []int64{3, 20}); got != seed.Value("A", []int64{3, 20}) {
		t.Fatalf("clone lost the seed: %d", got)
	}
	// Under one shared seed only written cells can differ; a state without
	// the seed differs on every boxed cell.
	if d := DiffArrays(st, NewSeededState(seed)); d != fmt.Sprintf("A[2,5]: %d vs %d", inside+1, inside) {
		t.Fatalf("diff under a shared seed = %q", d)
	}
	if d := DiffArrays(NewSeededState(seed), NewState()); !strings.HasPrefix(d, "A[1,-1]: ") || !strings.HasSuffix(d, "; ...") {
		t.Fatalf("diff against an unseeded state = %q", d)
	}
}
