package dataflow

import (
	"testing"

	"repro/internal/lattice"
	"repro/internal/poly"
)

// testOracle is a canned RangeOracle: proven bounds keyed by the queried
// polynomial's canonical rendering. Everything else answers "unknown",
// which is exactly the contract a real facts environment honors.
type testOracle struct {
	lower map[string]int64
	upper map[string]int64
}

func (o testOracle) LowerBound(p poly.Poly) (int64, bool) {
	if c, ok := p.IsConst(); ok {
		return c, true
	}
	v, ok := o.lower[p.String()]
	return v, ok
}

func (o testOracle) UpperBound(p poly.Poly) (int64, bool) {
	if c, ok := p.IsConst(); ok {
		return c, true
	}
	v, ok := o.upper[p.String()]
	return v, ok
}

func (o testOracle) ProveNonZero(p poly.Poly) bool {
	if lb, ok := o.LowerBound(p); ok && lb >= 1 {
		return true
	}
	if ub, ok := o.UpperBound(p); ok && ub <= -1 {
		return true
	}
	return false
}

func (o testOracle) Signature() string { return "test-oracle" }

// n is the symbolic scalar the tests bound.
var symN = poly.Sym("n")

// TestSymbolicKillReachesTripCount: tracked X[i+n] killed by X[i] gives the
// symbolic kill distance q = n; with the loop bound also n and the oracle
// proving n − n ≥ 0, no real instance is ever hit and the preserve constant
// collapses to the symbolic top.
func TestSymbolicKillReachesTripCount(t *testing.T) {
	d := symForm(poly.Const(1), symN)
	kill := form(1, 0)
	c := KillContext{Pr: 0, SymUB: symN, HasSymUB: true, Facts: testOracle{}}
	expect(t, PreserveConst(d, kill, true, c), lattice.SymTop(), "kill at distance n with UB n")

	// Without the oracle the same comparison is undecidable and must fall
	// back to the polarity-conservative value, never to the symbolic top.
	cNil := KillContext{Pr: 0, SymUB: symN, HasSymUB: true}
	expect(t, PreserveConst(d, kill, true, cNil), lattice.None(), "no oracle: must claims nothing")
	cNil.May = true
	expect(t, PreserveConst(d, kill, true, cNil), lattice.All(), "no oracle: may preserves everything")
}

// TestSymbolicKillPinnedConstant: facts pinning q = n to exactly 3 must
// reproduce the constant-kill answer p = 2.
func TestSymbolicKillPinnedConstant(t *testing.T) {
	d := symForm(poly.Const(1), symN)
	kill := form(1, 0)
	o := testOracle{lower: map[string]int64{symN.String(): 3}, upper: map[string]int64{symN.String(): 3}}
	c := KillContext{Pr: 0, Facts: o}
	expect(t, PreserveConst(d, kill, true, c), lattice.D(2), "kill pinned at distance 3")
}

// TestSymbolicKillBelowRange: a kill distance proven below the tracked
// range start touches no tracked instance.
func TestSymbolicKillBelowRange(t *testing.T) {
	d := symForm(poly.Const(1), symN)
	kill := form(1, 0)
	o := testOracle{upper: map[string]int64{symN.String(): 0}}
	c := KillContext{Pr: 1, Facts: o}
	expect(t, PreserveConst(d, kill, true, c), lattice.All(), "kill below the tracked range")
}

// TestSymbolicKillOneSided: with q = n ∈ [2, ?] a must-problem may only
// claim the proven prefix n−1 ≥ 1; with n ∈ [2, 5] a may-problem rounds
// up to 4.
func TestSymbolicKillOneSided(t *testing.T) {
	d := symForm(poly.Const(1), symN)
	kill := form(1, 0)

	oLo := testOracle{lower: map[string]int64{symN.String(): 2}}
	expect(t, PreserveConst(d, kill, true, KillContext{Pr: 0, Facts: oLo}),
		lattice.D(1), "must rounds the preserved prefix down to lo−1")

	oBoth := testOracle{lower: map[string]int64{symN.String(): 2}, upper: map[string]int64{symN.String(): 5}}
	expect(t, PreserveConst(d, kill, true, KillContext{Pr: 0, May: true, Facts: oBoth}),
		lattice.D(4), "may rounds the preserved prefix up to hi−1")

	// Lower bound alone gives may nothing definite to cap with: everything
	// is (over-)preserved.
	expect(t, PreserveConst(d, kill, true, KillContext{Pr: 0, May: true, Facts: oLo}),
		lattice.All(), "may with open upper end overestimates")
}

// TestInvariantLocationsProvedDistinct: two loop-invariant references
// X[n] and X[0] alias exactly when n = 0; the oracle's nonzero proof
// separates them.
func TestInvariantLocationsProvedDistinct(t *testing.T) {
	d := symForm(poly.Const(0), symN)
	kill := form(0, 0)
	o := testOracle{lower: map[string]int64{symN.String(): 1}}
	expect(t, PreserveConst(d, kill, true, KillContext{Pr: 0, Facts: o}),
		lattice.All(), "X[n] vs X[0] with n ≥ 1")
	expect(t, PreserveConst(d, kill, true, KillContext{Pr: 0}),
		lattice.None(), "X[n] vs X[0] without facts stays conservative")
}

// TestSymTopIsChainTop: the symbolic top is the chain lattice's ⊤ — the
// provenance-documenting constructor must not mint a new element, or the
// solver's codes (None 0, finite d+1, All all ones) would no longer cover
// the lattice.
func TestSymTopIsChainTop(t *testing.T) {
	if !lattice.SymTop().Eq(lattice.All()) {
		t.Fatal("SymTop() must equal All()")
	}
	if lattice.SymTop().Cmp(lattice.D(1<<30)) <= 0 {
		t.Fatal("SymTop() must sit above every finite distance")
	}
}
