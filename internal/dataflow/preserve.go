// Package dataflow implements the array-reference data flow framework of
// Duesterwald, Gupta & Soffa (PLDI 1993): a monotone framework over the
// chain lattice of iteration distances, with generate / preserve / exit
// flow functions and a fixed point reached in at most three passes over a
// structured loop body (must-problems) or two passes (may-problems).
package dataflow

import (
	"repro/internal/lattice"
	"repro/internal/poly"
	"repro/internal/sema"
)

// RangeOracle resolves symbolic comparisons the preserve derivation
// cannot decide from the affine forms alone. It is the solver's view of
// internal/rangefacts.Facts (kept an interface so the dependency points
// outward); implementations must answer deterministically and may always
// answer "unknown". A nil oracle disables every symbolic resolution.
type RangeOracle interface {
	// LowerBound / UpperBound return a proven constant bound of p.
	LowerBound(p poly.Poly) (int64, bool)
	UpperBound(p poly.Poly) (int64, bool)
	// ProveNonZero reports a proof of p ≠ 0.
	ProveNonZero(p poly.Poly) bool
	// Signature canonically renders the fact set (folded into memo keys).
	Signature() string
}

// KillContext carries the inputs of a preserve-constant computation.
type KillContext struct {
	// Pr is the paper's pr(d,n) predicate value (0 or 1): 0 when the
	// tracked reference occurs in a node preceding the killing node, so the
	// current iteration's instance is part of the tracked range.
	Pr int64
	// May selects overestimating (may) instead of underestimating (must)
	// approximation.
	May bool
	// Backward flips the roles of positive and negative distances
	// (paper §3.4): k(i) = ((a2−a1)·i + (b2−b1))/a1.
	Backward bool
	// UB is the constant loop bound when HasUB; distances ≥ UB−1 denote all
	// instances.
	UB    int64
	HasUB bool
	// SymUB is the loop bound as a polynomial when the bound is symbolic
	// (HasSymUB); with a Facts oracle, kill distances proven ≥ SymUB
	// collapse to the symbolic top of the chain lattice.
	SymUB    poly.Poly
	HasSymUB bool
	// Facts resolves symbolic comparisons (nil = none resolve).
	Facts RangeOracle
}

func (c KillContext) clamp(x lattice.Dist) lattice.Dist {
	if c.HasUB {
		return x.Clamp(c.UB)
	}
	return x
}

// conservative returns the safe extreme for the polarity: for must-problems
// the underestimate "nothing preserved"; for may-problems the overestimate
// "everything preserved".
func (c KillContext) conservative() lattice.Dist {
	if c.May {
		return lattice.All()
	}
	return lattice.None()
}

// PreserveConst computes the constant p of a preserve function
// f(x) = min(x, p): the maximal iteration distance of instances of the
// tracked reference d = X[a1·i+b1] that survive the killing reference
// d' = X[a2·i+b2] in one execution of the killer's node (paper §3.1.2 for
// must-problems, §3.3 for may-problems, §3.4 for backward problems).
//
// The computation distinguishes instances of d at distance δ (δ ≥ pr) that
// the killer overwrites: overwriting happens exactly when
// f2(i) = f1(i−δ), i.e. δ = k(i) with k(i) = ((a1−a2)·i + (b1−b2))/a1.
// Backward problems negate the numerator. Coefficients may be symbolic
// polynomials; cases that cannot be decided symbolically fall back to the
// polarity-appropriate conservative answer.
func PreserveConst(d, kill sema.AffineForm, killAffine bool, c KillContext) lattice.Dist {
	if !killAffine {
		// The killer's accessed region is unknown (non-affine subscript or
		// summarized inner loop): assume it kills everything — unless the
		// problem wants an overestimate, in which case an indefinite kill
		// preserves everything (paper §3.3: "Unless there is a definite
		// kill ... we assume that all instances of d are preserved").
		return c.conservative()
	}

	a1, b1 := d.A, d.B
	a2, b2 := kill.A, kill.B

	// Numerator of k(i): Δa·i + Δb.
	da := a1.Sub(a2)
	db := b1.Sub(b2)
	if c.Backward {
		da, db = da.Neg(), db.Neg()
	}

	a1c, a1IsConst := a1.IsConst()

	// Loop-invariant tracked subscript (a1 = 0): the killer overwrites the
	// single location X[b1] whenever a2·i + b2 = b1 for some iteration.
	if a1IsConst && a1c == 0 {
		a2c, a2IsConst := a2.IsConst()
		switch {
		case a2IsConst && a2c == 0:
			if b1.Equal(b2) {
				// Same location rewritten every iteration: no previous
				// instance in the tracked range survives.
				return killsAtEveryIteration(c)
			}
			if diff, ok := b1.Sub(b2).IsConst(); ok && diff != 0 {
				return lattice.All() // provably disjoint locations
			}
			if c.Facts != nil && c.Facts.ProveNonZero(b1.Sub(b2)) {
				// Range facts prove the two invariant locations distinct
				// (e.g. a guard established b1 > b2).
				return lattice.All()
			}
			return c.conservative() // symbolically undecidable aliasing
		default:
			// A striding killer may hit X[b1] in some iteration; the kill
			// distance varies with i, so it is not definite.
			if c.May {
				return lattice.All()
			}
			// Must: only provable disjointness preserves anything. a2·i+b2 =
			// b1 has an integer solution i unless divisibility fails.
			if a2IsConst {
				if diff, ok := b1.Sub(b2).IsConst(); ok && a2c != 0 && diff%a2c != 0 {
					return lattice.All()
				}
			}
			return lattice.None()
		}
	}

	// k(i) constant in i (Δa = 0).
	if da.IsZero() {
		if db.IsZero() {
			// Textually identical subscripts: k ≡ 0.
			return constKill(0, true, c)
		}
		// k ≡ Δb / a1. Exact symbolic division handles e.g. N/N = 1
		// (paper §3.6 symbolic evaluation).
		if q, ok := db.DivExact(a1); ok {
			if kc, isConst := q.IsConst(); isConst {
				return constKill(kc, true, c)
			}
			// Constant in i but symbolically unknown value: a range-fact
			// proof can still place the kill distance relative to the
			// tracked range or the trip count.
			if p, ok := symbolicConstKill(q, c); ok {
				return p
			}
			return c.conservative()
		}
		// Δb/a1 is not an integer polynomial. When both are integer
		// constants the division simply has a remainder: the kill distance
		// is never an integer, so nothing is ever killed.
		if _, dbConst := db.IsConst(); dbConst && a1IsConst {
			return lattice.All()
		}
		return c.conservative()
	}

	// k has nonzero slope: the kill distance varies across iterations, so a
	// may-problem sees no definite kill.
	if c.May {
		return lattice.All()
	}

	// Must with varying k: the paper's safe approximation
	// p = ⌈min{k(i) | i ∈ I, k(i) > pr}⌉ − 1, with p = ⊤ when k stays below
	// pr on the whole range and p = pr−1 when k can equal pr.
	dac, okDa := da.IsConst()
	dbc, okDb := db.IsConst()
	if !okDa || !okDb || !a1IsConst || a1c == 0 {
		return lattice.None()
	}
	return c.clamp(varyingKill(a1c, dac, dbc, c))
}

// killsAtEveryIteration handles k ≡ pr-style definite kills of the whole
// tracked range.
func killsAtEveryIteration(c KillContext) lattice.Dist {
	if c.Pr == 1 {
		// The tracked range starts at distance 1; a kill at the location
		// each iteration removes every previous instance.
		return lattice.None()
	}
	return lattice.None()
}

// constKill resolves the three paper cases for a constant k ≡ kc.
func constKill(kc int64, _ bool, c KillContext) lattice.Dist {
	switch {
	case kc == c.Pr:
		// Every instance generated is killed: p = ⊥ (must) — and a definite
		// kill at the start of the range also yields "no instance" for may.
		return lattice.None()
	case kc < c.Pr:
		// The killer only affects distances outside the tracked range.
		return lattice.All()
	default:
		// Definite kill at constant distance kc > pr: instances up to
		// kc−1 are preserved (accurate for both polarities).
		return c.clamp(lattice.D(kc - 1))
	}
}

// symbolicConstKill resolves a definite kill at the symbolic (i-free)
// distance q through the range-fact oracle. The cases mirror constKill
// with interval endpoints in place of the constant: a distance proven to
// reach the symbolic trip count collapses to the chain lattice's symbolic
// top, a distance proven below the tracked range preserves everything,
// and one-sided bounds give the polarity-safe prefix (must rounds the
// preserved prefix down to the proven lower bound, may rounds it up to
// the proven upper bound). ok=false when no fact resolves the comparison
// — the caller then falls back to the conservative value, never to the
// symbolic top.
func symbolicConstKill(q poly.Poly, c KillContext) (lattice.Dist, bool) {
	if c.Facts == nil {
		return lattice.None(), false
	}
	if c.HasSymUB {
		// q ≥ UB: instances exist only at distances ≤ UB−1 < q, so the
		// kill never hits a real instance (accurate for both polarities).
		if lb, ok := c.Facts.LowerBound(q.Sub(c.SymUB)); ok && lb >= 0 {
			return lattice.SymTop(), true
		}
	}
	lo, okLo := c.Facts.LowerBound(q)
	hi, okHi := c.Facts.UpperBound(q)
	switch {
	case okLo && okHi && lo == hi:
		return constKill(lo, true, c), true
	case okHi && hi < c.Pr:
		// The kill only affects distances outside the tracked range.
		return lattice.All(), true
	case okLo && lo > c.Pr:
		// Definite kill at distance q ∈ [lo, hi] with the whole interval
		// above the range start: the exact preserve is q−1.
		if c.May {
			if okHi {
				return c.clamp(lattice.D(hi - 1)), true
			}
			return lattice.All(), true
		}
		return c.clamp(lattice.D(lo - 1)), true
	}
	return lattice.None(), false
}

// varyingKill implements the must-approximation for
// k(i) = (dac·i + dbc) / a1c with dac ≠ 0 over the iteration range
// I = [1, UB] (UB = ∞ when unknown).
func varyingKill(a1c, dac, dbc int64, c KillContext) lattice.Dist {
	// q(i) = (dac·i + dbc)/a1c as a real-valued function; increasing iff
	// dac and a1c share sign.
	increasing := (dac > 0) == (a1c > 0)

	// kAtLeast(i, t) ⇔ q(i) ≥ t  ⇔  dac·i + dbc ≥ t·a1c (a1c>0) or ≤ (a1c<0).
	cmpGE := func(i, t int64) bool {
		lhs := dac*i + dbc
		rhs := t * a1c
		if a1c > 0 {
			return lhs >= rhs
		}
		return lhs <= rhs
	}
	// realValueCeil(i) = ⌈q(i)⌉ computed with integer arithmetic.
	realValueCeil := func(i int64) int64 {
		num := dac*i + dbc
		return ceilDiv(num, a1c)
	}

	// The minimal q value strictly above pr over integer i ∈ [1, UB]:
	// since q is monotone, it is attained at the first (increasing) or last
	// (decreasing) i in range with q(i) > pr. "q(i) > pr" over rationals is
	// q(i) ≥ pr + 1/|a1c| — test with strict integer inequality.
	cmpGT := func(i, t int64) bool {
		lhs := dac*i + dbc
		rhs := t * a1c
		if a1c > 0 {
			return lhs > rhs
		}
		return lhs < rhs
	}

	ubKnown := c.HasUB
	ub := c.UB
	if ubKnown && ub < 1 {
		return lattice.All() // empty iteration space: nothing kills
	}

	// If k(i) equals pr exactly at some iteration, the start of the tracked
	// range is killed then; the exact definition
	// p = max{δ | ∀i ∀δ′∈[pr,δ]: δ′ ≠ k(i)} therefore gives p < pr. (The
	// paper's three-case summary omits this crossing case; omitting it is
	// unsound, which our property test TestQuickMustPreserveIsSafe
	// demonstrates.)
	hiBound0 := int64(-1)
	if ubKnown {
		hiBound0 = ub
	}
	if hitsExactly(a1c, dac, dbc, c.Pr, 1, hiBound0, ubKnown) {
		return lattice.D(c.Pr - 1) // pr=0 collapses to None
	}

	var iStar int64
	var found bool
	if increasing {
		// Smallest i ≥ 1 with q(i) > pr.
		if cmpGT(1, c.Pr) {
			iStar, found = 1, true
		} else {
			// Solve q(i) > pr for minimal integer i; binary search over a
			// safe bracket.
			lo, hi := int64(1), int64(1)
			limit := int64(1) << 40
			if ubKnown {
				limit = ub
			}
			for hi < limit && !cmpGT(hi, c.Pr) {
				hi *= 2
				if hi > limit {
					hi = limit
				}
			}
			if cmpGT(hi, c.Pr) {
				for lo < hi {
					mid := lo + (hi-lo)/2
					if cmpGT(mid, c.Pr) {
						hi = mid
					} else {
						lo = mid + 1
					}
				}
				iStar, found = lo, true
			}
		}
		if found && ubKnown && iStar > ub {
			found = false
		}
	} else {
		// Decreasing: the minimal value > pr sits at the largest valid i.
		if !ubKnown {
			// q decreases without bound; arbitrarily close to pr from above
			// whenever q(1) > pr. The infimum over integers is attained at
			// the largest i with q(i) > pr; without an upper bound we can
			// still compute it: find largest i with q(i) > pr.
			if !cmpGT(1, c.Pr) {
				// Entire range below: check a kill exactly at pr.
				if hitsExactly(a1c, dac, dbc, c.Pr, 1, -1, false) {
					return lattice.D(c.Pr - 1)
				}
				return lattice.All()
			}
			lo, hi := int64(1), int64(2)
			for cmpGT(hi, c.Pr) && hi < int64(1)<<40 {
				hi *= 2
			}
			for lo < hi {
				mid := lo + (hi-lo+1)/2
				if cmpGT(mid, c.Pr) {
					lo = mid
				} else {
					hi = mid - 1
				}
			}
			iStar, found = lo, true
		} else {
			if cmpGT(ub, c.Pr) {
				iStar, found = ub, true
			} else if cmpGT(1, c.Pr) {
				lo, hi := int64(1), ub
				for lo < hi {
					mid := lo + (hi-lo+1)/2
					if cmpGT(mid, c.Pr) {
						lo = mid
					} else {
						hi = mid - 1
					}
				}
				iStar, found = lo, true
			}
		}
	}

	if !found {
		// ∀i ∈ I: q(i) ≤ pr. If q can equal pr exactly at an integer i the
		// start of the tracked range is killed in some iteration: for a
		// must-problem assume the worst.
		hiBound := int64(-1)
		if ubKnown {
			hiBound = ub
		}
		if hitsExactly(a1c, dac, dbc, c.Pr, 1, hiBound, ubKnown) {
			return lattice.D(c.Pr - 1) // pr=0 collapses to None
		}
		return lattice.All()
	}
	_ = cmpGE
	p := realValueCeil(iStar) - 1
	if p < c.Pr {
		return lattice.D(c.Pr - 1)
	}
	return lattice.D(p)
}

// hitsExactly reports whether q(i) = t for some integer i in [lo, hi]
// ([lo, ∞) when !hiKnown) with integer q value: dac·i + dbc = t·a1c.
func hitsExactly(a1c, dac, dbc, t, lo, hi int64, hiKnown bool) bool {
	num := t*a1c - dbc
	if dac == 0 {
		return num == 0
	}
	if num%dac != 0 {
		return false
	}
	i := num / dac
	if i < lo {
		return false
	}
	if hiKnown && i > hi {
		return false
	}
	return true
}

// ceilDiv returns ⌈a/b⌉ for b ≠ 0.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}

// floorDiv returns ⌊a/b⌋ for b ≠ 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// PreserveAgainstRegion computes the preserve constant when the killer
// touches a known constant address interval [lo, hi] — the §3.2 refinement
// for summarized inner loops with constant bounds. The tracked class
// d = X[a·i + b] has its distance-δ instance at address a·(i−δ)+b; the
// kill affects δ exactly when some iteration i ∈ I puts that address
// inside the region.
//
// For must-problems the result is the largest δ-prefix [pr..p] no element
// of which is ever hit; may-problems keep everything unless the whole
// range is definitely hit, which a region cannot establish — so they
// preserve all.
func PreserveAgainstRegion(d sema.AffineForm, lo, hi int64, c KillContext) lattice.Dist {
	if c.May {
		return lattice.All()
	}
	a, b, ok := d.ConstCoeffs()
	if !ok {
		// Symbolic class offset: the region might sit anywhere relative to
		// it — fall back to the conservative kill.
		return lattice.None()
	}
	if a == 0 {
		if b >= lo && b <= hi {
			return lattice.None()
		}
		return lattice.All()
	}
	// Instance addresses at distance δ over i ∈ [1, UB]: the interval
	// a·(1−δ)+b … a·(UB−δ)+b (endpoints ordered by sign of a). Without a
	// known bound the i-interval is [1, ∞).
	// killed(δ) ⇔ that interval intersects [lo, hi].
	//
	// Solve for the smallest killed δ ≥ pr. Each endpoint is linear in δ
	// with slope −a, so the killed set of δ is itself an interval; compute
	// its bounds by direct inequality manipulation.
	var dMin, dMax int64
	unboundedAbove := !c.HasUB
	if a > 0 {
		// addresses [a(1−δ)+b, a(UB−δ)+b]; intersects iff
		// a(1−δ)+b ≤ hi  ∧  a(UB−δ)+b ≥ lo
		// ⇔ δ ≥ (a + b − hi)/a  ∧  δ ≤ (a·UB + b − lo)/a.
		dMin = ceilDiv(a+b-hi, a)
		if !unboundedAbove {
			dMax = floorDiv(a*c.UB+b-lo, a)
		}
	} else {
		// a < 0: addresses [a(UB−δ)+b, a(1−δ)+b]; intersects iff
		// a(UB−δ)+b ≤ hi  ∧  a(1−δ)+b ≥ lo
		// ⇔ δ ≥ (a + b − lo)/a  ∧  δ ≤ (a·UB + b − hi)/a.
		dMin = ceilDiv(a+b-lo, a)
		if !unboundedAbove {
			dMax = floorDiv(a*c.UB+b-hi, a)
		}
	}
	if dMin < c.Pr {
		dMin = c.Pr
	}
	if !unboundedAbove {
		if c.UB-1 < dMax {
			dMax = c.UB - 1
		}
		if dMin > dMax {
			return lattice.All() // no distance in range is ever hit
		}
	}
	// Distances pr..dMin−1 are provably untouched.
	return lattice.D(dMin - 1).Clamp(boundOrZero(c))
}

func boundOrZero(c KillContext) int64 {
	if c.HasUB {
		return c.UB
	}
	return 0
}

// SameLinearPart reports whether two affine forms have identical
// coefficients of the induction variable (a1 = a2), the precondition of the
// may-problem's "definite kill" (paper §3.3: d' of the form X[f(i)+c]).
func SameLinearPart(d, kill sema.AffineForm) bool {
	return d.A.Equal(kill.A)
}

// KillDistance returns the constant kill distance c when
// kill = X[f(i)±…] rewrites d's instance from exactly c iterations earlier,
// i.e. k(i) is the integer constant c; ok=false otherwise.
func KillDistance(d, kill sema.AffineForm, backward bool) (int64, bool) {
	da := d.A.Sub(kill.A)
	db := d.B.Sub(kill.B)
	if backward {
		da, db = da.Neg(), db.Neg()
	}
	if !da.IsZero() {
		return 0, false
	}
	q, ok := db.DivExact(d.A)
	if !ok {
		return 0, false
	}
	c, isConst := q.IsConst()
	if !isConst {
		return 0, false
	}
	return c, true
}
