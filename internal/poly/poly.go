// Package poly implements integer polynomials over named symbols.
//
// The array-reference framework of Duesterwald/Gupta/Soffa analyzes
// subscripts of the form a·i + b where i is the induction variable of the
// loop under analysis. When loops are nested or arrays are
// multi-dimensional, a and b are not plain integers: they are linear
// combinations of symbolic constants — induction variables of enclosing
// loops and array dimension sizes (paper §3.2, §3.6). This package provides
// the small amount of exact symbolic arithmetic the analysis needs: add,
// subtract, multiply, test for (integer) constancy, equality, and exact
// division used when evaluating the kill-distance function
// k(i) = ((a1−a2)·i + (b1−b2)) / a1.
//
// A Poly is a sum of monomials with int64 coefficients. A monomial is a
// product of symbol names (with multiplicity), kept in sorted order so that
// equal monomials have equal keys. The representation keeps the constant
// term inline and the non-constant terms in a slice sorted by monomial key;
// slices are immutable after construction and may be shared between values,
// so constant arithmetic and single-term polynomials cost at most one small
// allocation (and usually none).
package poly

import (
	"fmt"
	"sort"
	"strings"
)

// term is one non-constant monomial: a canonical key (sorted symbol names
// joined by '*', never empty) and its non-zero coefficient.
type term struct {
	mon   string
	coeff int64
}

// Poly is an integer polynomial over symbols. The zero value is the zero
// polynomial. Polys are immutable: operations return new values.
type Poly struct {
	k     int64  // constant term
	terms []term // non-constant terms, sorted by mon; immutable, sharable
}

// Zero is the zero polynomial.
var Zero = Poly{}

// Const returns the constant polynomial c.
func Const(c int64) Poly { return Poly{k: c} }

// Sym returns the polynomial consisting of the single symbol name.
func Sym(name string) Poly {
	if name == "" {
		panic("poly: empty symbol name")
	}
	return Poly{terms: []term{{mon: name, coeff: 1}}}
}

// monKey builds a canonical key from symbol factors.
func monKey(factors []string) string {
	sort.Strings(factors)
	return strings.Join(factors, "*")
}

func monFactors(key string) []string {
	if key == "" {
		return nil
	}
	return strings.Split(key, "*")
}

// eachFactor calls f for every '*'-separated factor of mon without
// allocating. It stops early when f returns false.
func eachFactor(mon string, f func(factor string) bool) {
	for len(mon) > 0 {
		i := strings.IndexByte(mon, '*')
		if i < 0 {
			f(mon)
			return
		}
		if !f(mon[:i]) {
			return
		}
		mon = mon[i+1:]
	}
}

// stripOne returns the multiplicity of sym among mon's factors and mon with
// one occurrence removed (meaningful only when n ≥ 1). It allocates only
// when a removal leaves factors on both sides of the gap.
func stripOne(mon, sym string) (rest string, n int) {
	off := 0
	cut := -1 // byte offset of the first occurrence
	for s := mon[off:]; ; {
		i := strings.IndexByte(s, '*')
		seg := s
		if i >= 0 {
			seg = s[:i]
		}
		if seg == sym {
			n++
			if cut < 0 {
				cut = off
			}
		}
		if i < 0 {
			break
		}
		off += i + 1
		s = s[i+1:]
	}
	if n == 0 {
		return mon, 0
	}
	end := cut + len(sym)
	switch {
	case cut == 0 && end == len(mon):
		rest = ""
	case cut == 0:
		rest = mon[end+1:] // drop trailing '*'
	case end == len(mon):
		rest = mon[:cut-1] // drop leading '*'
	default:
		rest = mon[:cut-1] + mon[end:]
	}
	return rest, n
}

// mergeAdd returns a + sign·b as a fresh sorted term slice (nil when all
// coefficients cancel). Inputs are sorted; the result never aliases them.
func mergeAdd(a, b []term, sign int64) []term {
	out := make([]term, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].mon < b[j].mon:
			out = append(out, a[i])
			i++
		case a[i].mon > b[j].mon:
			out = append(out, term{b[j].mon, sign * b[j].coeff})
			j++
		default:
			if c := a[i].coeff + sign*b[j].coeff; c != 0 {
				out = append(out, term{a[i].mon, c})
			}
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	for ; j < len(b); j++ {
		out = append(out, term{b[j].mon, sign * b[j].coeff})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Add returns p + q.
func (p Poly) Add(q Poly) Poly {
	if len(q.terms) == 0 {
		return Poly{k: p.k + q.k, terms: p.terms}
	}
	if len(p.terms) == 0 {
		return Poly{k: p.k + q.k, terms: q.terms}
	}
	return Poly{k: p.k + q.k, terms: mergeAdd(p.terms, q.terms, 1)}
}

// Sub returns p − q.
func (p Poly) Sub(q Poly) Poly {
	if len(q.terms) == 0 {
		return Poly{k: p.k - q.k, terms: p.terms}
	}
	return Poly{k: p.k - q.k, terms: mergeAdd(p.terms, q.terms, -1)}
}

// Neg returns −p.
func (p Poly) Neg() Poly {
	if len(p.terms) == 0 {
		return Poly{k: -p.k}
	}
	out := make([]term, len(p.terms))
	for i, t := range p.terms {
		out[i] = term{t.mon, -t.coeff}
	}
	return Poly{k: -p.k, terms: out}
}

// MulConst returns c·p.
func (p Poly) MulConst(c int64) Poly {
	switch c {
	case 0:
		return Zero
	case 1:
		return p
	}
	if len(p.terms) == 0 {
		return Poly{k: p.k * c}
	}
	out := make([]term, len(p.terms))
	for i, t := range p.terms {
		out[i] = term{t.mon, t.coeff * c}
	}
	return Poly{k: p.k * c, terms: out}
}

// mergeMon merges two canonical monomial keys into their product's key.
// Both inputs are sorted factor lists; the result interleaves them in order.
func mergeMon(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	var sb strings.Builder
	sb.Grow(len(a) + len(b) + 1)
	for a != "" && b != "" {
		af, bf := a, b
		if i := strings.IndexByte(a, '*'); i >= 0 {
			af = a[:i]
		}
		if i := strings.IndexByte(b, '*'); i >= 0 {
			bf = b[:i]
		}
		if af <= bf {
			sb.WriteString(af)
			a = a[len(af):]
			a = strings.TrimPrefix(a, "*")
		} else {
			sb.WriteString(bf)
			b = b[len(bf):]
			b = strings.TrimPrefix(b, "*")
		}
		sb.WriteByte('*')
	}
	rest := a
	if rest == "" {
		rest = b
	}
	if rest != "" {
		sb.WriteString(rest)
	} else {
		return strings.TrimSuffix(sb.String(), "*")
	}
	return sb.String()
}

// addTerm accumulates c into the coefficient of mon within ts, keeping the
// slice sorted. Used only by the (rare) general product path.
func addTerm(ts []term, mon string, c int64) []term {
	i := sort.Search(len(ts), func(i int) bool { return ts[i].mon >= mon })
	if i < len(ts) && ts[i].mon == mon {
		ts[i].coeff += c
		return ts
	}
	ts = append(ts, term{})
	copy(ts[i+1:], ts[i:])
	ts[i] = term{mon, c}
	return ts
}

// pruneZero drops zero-coefficient entries in place.
func pruneZero(ts []term) []term {
	out := ts[:0]
	for _, t := range ts {
		if t.coeff != 0 {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Mul returns p · q.
func (p Poly) Mul(q Poly) Poly {
	if len(p.terms) == 0 {
		return q.MulConst(p.k)
	}
	if len(q.terms) == 0 {
		return p.MulConst(q.k)
	}
	ts := make([]term, 0, len(p.terms)+len(q.terms))
	if q.k != 0 {
		for _, t := range p.terms {
			ts = addTerm(ts, t.mon, t.coeff*q.k)
		}
	}
	if p.k != 0 {
		for _, t := range q.terms {
			ts = addTerm(ts, t.mon, t.coeff*p.k)
		}
	}
	for _, t1 := range p.terms {
		for _, t2 := range q.terms {
			ts = addTerm(ts, mergeMon(t1.mon, t2.mon), t1.coeff*t2.coeff)
		}
	}
	return Poly{k: p.k * q.k, terms: pruneZero(ts)}
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return p.k == 0 && len(p.terms) == 0 }

// IsConst reports whether p is an integer constant, returning its value.
func (p Poly) IsConst() (int64, bool) {
	if len(p.terms) == 0 {
		return p.k, true
	}
	return 0, false
}

// ConstPart returns the constant term of p.
func (p Poly) ConstPart() int64 { return p.k }

// Equal reports whether p and q are identical polynomials.
func (p Poly) Equal(q Poly) bool {
	if p.k != q.k || len(p.terms) != len(q.terms) {
		return false
	}
	for i, t := range p.terms {
		if q.terms[i] != t {
			return false
		}
	}
	return true
}

// Symbols returns the sorted set of symbols that occur in p.
func (p Poly) Symbols() []string {
	var out []string
	for _, t := range p.terms {
		eachFactor(t.mon, func(f string) bool {
			for _, s := range out {
				if s == f {
					return true
				}
			}
			out = append(out, f)
			return true
		})
	}
	sort.Strings(out)
	return out
}

// CoeffOf returns the coefficient polynomial of the given symbol when p is
// viewed as linear in that symbol, together with the remainder:
// p = coeff·sym + rest. It reports ok=false when p contains sym with degree
// greater than one (e.g. sym², or sym·sym2·sym where sym repeats).
func (p Poly) CoeffOf(sym string) (coeff, rest Poly, ok bool) {
	var ck int64
	var cts, rts []term
	restShared := true // rts not yet forced to diverge from p.terms
	for i, t := range p.terms {
		stripped, n := stripOne(t.mon, sym)
		switch n {
		case 0:
			if !restShared {
				rts = append(rts, t)
			}
		case 1:
			if restShared {
				rts = append([]term(nil), p.terms[:i]...)
				restShared = false
			}
			if stripped == "" {
				ck += t.coeff
			} else {
				cts = append(cts, term{stripped, t.coeff})
			}
		default:
			return Zero, Zero, false
		}
	}
	if restShared {
		rts = p.terms
	}
	sortTerms(cts)
	return Poly{k: ck, terms: cts}, Poly{k: p.k, terms: rts}, true
}

// sortTerms sorts (and coalesces nothing — keys are distinct by
// construction) a small term slice by monomial key, allocation-free.
func sortTerms(ts []term) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].mon < ts[j-1].mon; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// Substitute replaces every occurrence of sym in p with the polynomial q.
// It requires p to be linear in sym (degree ≤ 1) and reports ok=false
// otherwise.
func (p Poly) Substitute(sym string, q Poly) (Poly, bool) {
	coeff, rest, ok := p.CoeffOf(sym)
	if !ok {
		return Zero, false
	}
	return coeff.Mul(q).Add(rest), true
}

// DivExact returns p / q when q divides p exactly with an integer-polynomial
// quotient of the restricted shape this analysis needs: q must be a single
// monomial (one term). ok=false otherwise.
func (p Poly) DivExact(q Poly) (Poly, bool) {
	switch {
	case len(q.terms) == 0:
		// Constant divisor.
		if q.k == 0 {
			return Zero, false
		}
		if p.k%q.k != 0 {
			return Zero, false
		}
		if len(p.terms) == 0 {
			return Poly{k: p.k / q.k}, true
		}
		out := make([]term, len(p.terms))
		for i, t := range p.terms {
			if t.coeff%q.k != 0 {
				return Zero, false
			}
			out[i] = term{t.mon, t.coeff / q.k}
		}
		return Poly{k: p.k / q.k, terms: out}, true
	case len(q.terms) == 1 && q.k == 0:
		qt := q.terms[0]
		if p.k != 0 {
			// The constant term has no factors to cancel q's monomial.
			return Zero, false
		}
		out := make([]term, 0, len(p.terms))
		for _, t := range p.terms {
			if t.coeff%qt.coeff != 0 {
				return Zero, false
			}
			rem, ok := stripMon(t.mon, qt.mon)
			if !ok {
				return Zero, false
			}
			if rem == "" {
				// Quotient constant term: fold below via k. There can be
				// at most one such term (keys are distinct).
				out = append(out, term{"", t.coeff / qt.coeff})
				continue
			}
			out = append(out, term{rem, t.coeff / qt.coeff})
		}
		var k int64
		kept := out[:0]
		for _, t := range out {
			if t.mon == "" {
				k += t.coeff
			} else {
				kept = append(kept, t)
			}
		}
		sortTerms(kept)
		if len(kept) == 0 {
			kept = nil
		}
		return Poly{k: k, terms: kept}, true
	default:
		return Zero, false
	}
}

// stripMon removes the multiset of factors in sub from mon; ok=false when
// some factor of sub is missing. Fast path: no '*' in sub (single factor).
func stripMon(mon, sub string) (string, bool) {
	if !strings.Contains(sub, "*") {
		rest, n := stripOne(mon, sub)
		if n == 0 {
			return "", false
		}
		return rest, true
	}
	factors := monFactors(mon)
	rem, ok := removeFactors(factors, monFactors(sub))
	if !ok {
		return "", false
	}
	return monKey(rem), true
}

// removeFactors removes each element of sub from factors (multiset
// difference); ok=false if some element of sub is missing.
func removeFactors(factors, sub []string) ([]string, bool) {
	out := append([]string(nil), factors...)
	for _, s := range sub {
		found := -1
		for i, f := range out {
			if f == s {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, false
		}
		out = append(out[:found], out[found+1:]...)
	}
	return out, true
}

// Monomial is one term of a polynomial in exported form.
type Monomial struct {
	Coeff   int64
	Symbols []string // sorted factors with multiplicity; empty = constant
}

// Monomials returns the polynomial's terms in a deterministic order
// (symbol-sorted, constant term last), matching String.
func (p Poly) Monomials() []Monomial {
	if p.k == 0 && len(p.terms) == 0 {
		return []Monomial{}
	}
	out := make([]Monomial, 0, len(p.terms)+1)
	for _, t := range p.terms {
		out = append(out, Monomial{Coeff: t.coeff, Symbols: monFactors(t.mon)})
	}
	if p.k != 0 {
		out = append(out, Monomial{Coeff: p.k})
	}
	return out
}

// NumTerms returns the number of non-constant terms of p.
func (p Poly) NumTerms() int { return len(p.terms) }

// Term returns the coefficient and monomial key of p's i-th non-constant
// term, 0 ≤ i < NumTerms(), in the order Monomials and String list them.
// The key is the term's symbol factors, sorted and joined by '*';
// NextFactor walks it. Neither allocates.
func (p Poly) Term(i int) (coeff int64, key string) {
	t := p.terms[i]
	return t.coeff, t.mon
}

// NextFactor splits a monomial key into its first factor and the key of
// the remaining factors, which is empty after the last one.
func NextFactor(key string) (factor, rest string) {
	if i := strings.IndexByte(key, '*'); i >= 0 {
		return key[:i], key[i+1:]
	}
	return key, ""
}

// Eval evaluates p under the given symbol assignment. Missing symbols
// evaluate as 0.
func (p Poly) Eval(env map[string]int64) int64 {
	total := p.k
	for _, t := range p.terms {
		v := t.coeff
		eachFactor(t.mon, func(f string) bool {
			v *= env[f]
			return true
		})
		total += v
	}
	return total
}

// String renders the polynomial deterministically (sorted monomials,
// constant last), e.g. "2*N*i + j - 3".
func (p Poly) String() string {
	if p.k == 0 && len(p.terms) == 0 {
		return "0"
	}
	var b strings.Builder
	first := true
	writeTerm := func(mon string, v int64) {
		if first {
			if v < 0 {
				b.WriteString("-")
				v = -v
			}
			first = false
		} else {
			if v < 0 {
				b.WriteString(" - ")
				v = -v
			} else {
				b.WriteString(" + ")
			}
		}
		switch {
		case mon == "":
			fmt.Fprintf(&b, "%d", v)
		case v == 1:
			b.WriteString(mon)
		default:
			fmt.Fprintf(&b, "%d*%s", v, mon)
		}
	}
	for _, t := range p.terms {
		writeTerm(t.mon, t.coeff)
	}
	if p.k != 0 {
		writeTerm("", p.k)
	}
	return b.String()
}
