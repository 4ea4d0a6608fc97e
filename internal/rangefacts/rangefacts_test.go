package rangefacts

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/poly"
	"repro/internal/sema"
)

func mustLoop(t *testing.T, src string) (*ast.Program, *sema.Info, *ast.DoLoop) {
	t.Helper()
	prog, err := parser.ParseBytes([]byte(src), nil)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := sema.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	norm, err := sema.Normalize(prog)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	info, err := sema.Check(norm)
	if err != nil {
		t.Fatalf("recheck: %v", err)
	}
	var loop *ast.DoLoop
	ast.Inspect(norm.Body, func(n ast.Node) bool {
		if dl, ok := n.(*ast.DoLoop); ok && loop == nil {
			loop = dl
		}
		return loop == nil
	})
	if loop == nil {
		t.Fatal("no loop in program")
	}
	return norm, info, loop
}

// TestSolveIntervals pins the interval fixpoint on a two-sided fact set:
// n ≥ 1 and n ≤ 10 must bound every linear query over n.
func TestSolveIntervals(t *testing.T) {
	n := poly.Sym("n")
	f := New([]Fact{
		Positive(n, "test"),
		NonNeg(poly.Const(10).Sub(n), "test"),
	}, 0)
	if f.Exhausted() {
		t.Fatal("solve exhausted on a two-fact set")
	}
	if got := f.SymbolRange("n"); !got.Bounded() || got.Lo != 1 || got.Hi != 10 {
		t.Fatalf("SymbolRange(n) = %s, want [1, 10]", got)
	}
	// 2n + 3 over n ∈ [1, 10] is [5, 23].
	b := f.Bounds(n.MulConst(2).Add(poly.Const(3)))
	if !b.Bounded() || b.Lo != 5 || b.Hi != 23 {
		t.Fatalf("Bounds(2n+3) = %s, want [5, 23]", b)
	}
	if !f.ProveGE(n, poly.Const(1)) {
		t.Error("ProveGE(n, 1) failed")
	}
	if f.ProveGE(n, poly.Const(2)) {
		t.Error("ProveGE(n, 2) proved an unprovable bound")
	}
	if !f.ProveGT(poly.Const(11), n) {
		t.Error("ProveGT(11, n) failed")
	}
	if !f.ProveNonZero(n) {
		t.Error("ProveNonZero(n) failed with n ≥ 1")
	}
	if f.ProveNonZero(n.Sub(poly.Const(5))) {
		t.Error("ProveNonZero(n-5) proved the unprovable (n may be 5)")
	}
	if s, ok := f.Sign(n); !ok || s != 1 {
		t.Errorf("Sign(n) = (%d, %v), want (1, true)", s, ok)
	}
	if ub, ok := f.UpperBound(n); !ok || ub != 10 {
		t.Errorf("UpperBound(n) = (%d, %v), want (10, true)", ub, ok)
	}
}

// TestBoundsUnder checks the primed-symbol indirection the nest certifier
// uses: j' must range over j's interval.
func TestBoundsUnder(t *testing.T) {
	j := poly.Sym("j")
	f := New([]Fact{
		Positive(j, "test"),
		NonNeg(poly.Const(8).Sub(j), "test"),
	}, 0)
	d := poly.Sym("j").Sub(poly.Sym("j'")).Add(poly.Const(6)) // j − j' + 6
	base := func(s string) string { return strings.TrimSuffix(s, "'") }
	b := f.BoundsUnder(d, base)
	if !b.Bounded() || b.Lo != -1 || b.Hi != 13 {
		t.Fatalf("BoundsUnder(j - j' + 6) = %s, want [-1, 13]", b)
	}
	// Without the indirection j' is unknown and the bound must open up.
	if f.Bounds(d).Bounded() {
		t.Fatal("Bounds treated j' as a known symbol")
	}
}

// TestContradictionClaimsNothing: facts describing an empty execution
// (n ≥ 5 ∧ n ≤ 2) must degrade to the claim-nothing environment, never to
// "anything follows".
func TestContradictionClaimsNothing(t *testing.T) {
	n := poly.Sym("n")
	f := New([]Fact{
		NonNeg(n.Sub(poly.Const(5)), "test"),
		NonNeg(poly.Const(2).Sub(n), "test"),
	}, 0)
	if !f.Exhausted() {
		t.Fatal("contradictory facts did not degrade to claim-nothing")
	}
	if f.SymbolRange("n").HasLo || f.SymbolRange("n").HasHi {
		t.Error("exhausted environment still claims an interval")
	}
	if f.ProveNonZero(n) {
		t.Error("exhausted environment proved a fact")
	}
	// Constants stay decidable: they need no facts.
	if b := f.Bounds(poly.Const(7)); !b.Bounded() || b.Lo != 7 || b.Hi != 7 {
		t.Errorf("Bounds(7) under exhaustion = %s, want [7, 7]", b)
	}
}

// TestFuelExhaustion: an undersized budget must degrade to claim-nothing,
// and the default budget must never bind.
func TestFuelExhaustion(t *testing.T) {
	n := poly.Sym("n")
	facts := []Fact{Positive(n, "test"), NonNeg(poly.Const(10).Sub(n), "test")}
	if f := New(facts, 1); !f.Exhausted() {
		t.Fatal("fuel 1 did not exhaust a two-fact solve")
	} else if _, ok := f.LowerBound(n); ok {
		t.Fatal("exhausted solve still answers queries")
	}
	if f := New(facts, 0); f.Exhausted() {
		t.Fatal("default fuel exhausted a two-fact solve")
	}
}

// TestSignatureDeterminism: the signature must be invariant under input
// order and duplicates — it feeds the solver's memo fingerprint, where an
// order-dependent signature would split identical cache entries.
func TestSignatureDeterminism(t *testing.T) {
	n, m := poly.Sym("n"), poly.Sym("m")
	base := []Fact{
		Positive(n, "loop bound"),
		NonNeg(poly.Const(10).Sub(n), "loop bound"),
		NonNeg(m.Sub(n), "guard"),
		Positive(n, "loop bound"), // duplicate
	}
	want := New(base, 0).Signature()
	if want == "" {
		t.Fatal("non-empty fact set signed as empty")
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		shuf := append([]Fact(nil), base...)
		rng.Shuffle(len(shuf), func(a, b int) { shuf[a], shuf[b] = shuf[b], shuf[a] })
		if got := New(shuf, 0).Signature(); got != want {
			t.Fatalf("signature order-dependent: %q vs %q", got, want)
		}
	}
	other := New(append([]Fact(nil), base[0], base[1]), 0).Signature()
	if other == want {
		t.Fatal("different fact sets share a signature")
	}
	var nilF *Facts
	if nilF.Signature() != "" {
		t.Fatal("nil environment must sign empty")
	}
}

// TestNilSafety: every query on a nil environment answers "unknown".
func TestNilSafety(t *testing.T) {
	var f *Facts
	if !f.Empty() || !f.Exhausted() {
		t.Fatal("nil Facts must be empty and exhausted")
	}
	if f.ProveGE(poly.Sym("n"), poly.Const(0)) {
		t.Fatal("nil environment proved a fact")
	}
	if _, ok := f.LowerBound(poly.Sym("n")); ok {
		t.Fatal("nil environment bounded a symbol")
	}
	if c, ok := f.LowerBound(poly.Const(3)); !ok || c != 3 {
		t.Fatal("nil environment must still bound constants")
	}
	if f.Describe() != "none" {
		t.Fatalf("nil Describe = %q, want none", f.Describe())
	}
}

// TestDeriveLoopBoundsAndGuards: derivation over a real normalized program
// must yield the loop-bound facts (1 ≤ i ≤ n), inner-loop bounds, and the
// dominating guard's relation.
func TestDeriveLoopBoundsAndGuards(t *testing.T) {
	prog, info, loop := mustLoop(t, `
dim X[100]
if n < 50 then
  do i = 1, n
    do j = 1, 8
      X[i] := X[i] + j
    enddo
  enddo
endif
`)
	f := Derive(prog, info, loop, nil, 0)
	if f.Exhausted() {
		t.Fatal("derivation exhausted")
	}
	iRange := f.SymbolRange("i")
	if !iRange.HasLo || iRange.Lo != 1 {
		t.Errorf("SymbolRange(i) = %s, want lower bound 1", iRange)
	}
	jRange := f.SymbolRange("j")
	if !jRange.Bounded() || jRange.Lo != 1 || jRange.Hi != 8 {
		t.Errorf("SymbolRange(j) = %s, want [1, 8]", jRange)
	}
	// Guard: n < 50 ⟹ n ≤ 49; loop: i ≤ n ⟹ n ≥ 1 (the loop has
	// iterations exactly when its facts hold, which is how consumers
	// quantify).
	if ub, ok := f.UpperBound(poly.Sym("n")); !ok || ub != 49 {
		t.Errorf("UpperBound(n) = (%d, %v), want (49, true) from the guard", ub, ok)
	}
	if !f.ProveGE(poly.Sym("n"), poly.Sym("i")) {
		t.Error("ProveGE(n, i) failed: loop-bound fact n − i ≥ 0 missing")
	}
	// Assumptions join the derived set.
	fa := Derive(prog, info, loop, []Fact{AtLeast("n", 10, "assume")}, 0)
	if lb, ok := fa.LowerBound(poly.Sym("n")); !ok || lb != 10 {
		t.Errorf("assumed LowerBound(n) = (%d, %v), want (10, true)", lb, ok)
	}
}

// TestDeriveWalksTheBodyOnce: one walk of the body yields the bound facts
// of every inner loop, however deep, and one dim fact per subscript of
// each multi-subscript array without a declared dim, once per array
// whatever its number of references; declared and one-subscript arrays
// yield none. The signature is the canonical order, whatever order the
// walk met the facts in.
func TestDeriveWalksTheBodyOnce(t *testing.T) {
	prog, info, loop := mustLoop(t, `
dim D[10, 10]
do i = 1, n
  B[i, 1] := C[i]
  do j = 1, m
    if i > 2 then
      do k = 1, 4
        A[i, j] := D[i, j] + B[j, k]
      enddo
    endif
    A[j, i] := B[i, j]
  enddo
enddo
`)
	want := "-i + n >= 0 (loop bound);-j + m >= 0 (loop bound);-k + 4 >= 0 (loop bound);" +
		"A#0 >= 1 (dim);A#1 >= 1 (dim);B#0 >= 1 (dim);B#1 >= 1 (dim);" +
		"i - 1 >= 0 (loop bound);j - 1 >= 0 (loop bound);k - 1 >= 0 (loop bound)"
	if got := Derive(prog, info, loop, nil, 0).Signature(); got != want {
		t.Errorf("Signature =\n%s\nwant\n%s", got, want)
	}
}

// TestParseAssumption: the vet -assume / service assume syntax — linear
// conjunctions convert, equality splits two-sided, and shapes condFacts
// would silently drop are rejected loudly instead.
func TestParseAssumption(t *testing.T) {
	facts, err := ParseAssumption("k >= 64 and n < 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 2 {
		t.Fatalf("got %d facts, want 2: %v", len(facts), facts)
	}
	f := New(facts, 0)
	if lb, ok := f.LowerBound(poly.Sym("k")); !ok || lb != 64 {
		t.Errorf("LowerBound(k) = (%d, %v), want (64, true)", lb, ok)
	}
	if ub, ok := f.UpperBound(poly.Sym("n")); !ok || ub != 99 {
		t.Errorf("UpperBound(n) = (%d, %v), want (99, true)", ub, ok)
	}
	for _, fa := range facts {
		if fa.Why != "assumed" {
			t.Errorf("fact %s: Why = %q, want assumed", fa, fa.Why)
		}
	}

	eq, err := ParseAssumption("m == 5")
	if err != nil || len(eq) != 2 {
		t.Fatalf("equality: facts %v err %v, want two one-sided facts", eq, err)
	}

	for _, bad := range []string{"k != 0", "k >= 1 or n >= 1", "k", "k >="} {
		if _, err := ParseAssumption(bad); err == nil {
			t.Errorf("ParseAssumption(%q) accepted a shape that yields no sound facts", bad)
		}
	}
}

// TestDescribeCaps: the certificate rendering lists facts in canonical
// order and caps the tail.
func TestDescribeCaps(t *testing.T) {
	var facts []Fact
	for _, s := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		facts = append(facts, Positive(poly.Sym(s), "test"))
	}
	d := New(facts, 0).Describe()
	if !strings.Contains(d, "a >= 1 (test)") {
		t.Errorf("Describe missing first fact: %q", d)
	}
	if !strings.Contains(d, "(+2 more)") {
		t.Errorf("Describe missing cap marker: %q", d)
	}
	if New(nil, 0).Describe() != "none" {
		t.Error("empty Describe must be none")
	}
}
