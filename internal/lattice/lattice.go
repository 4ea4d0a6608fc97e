// Package lattice implements the chain lattice L of maximal iteration
// distances (paper §3, Figure 2).
//
// A lattice value for a subscripted reference r denotes the range of the
// latest x instances of r:
//
//	⊤  = all instances
//	x  = instances up to maximal distance x (x ≥ 0)
//	⊥  = no instance
//
// The meet of the must-framework is min; may-problems use the reverse
// lattice whose meet is the dual max (paper §3.3). Both are provided here
// on a single representation: None (⊥ of the must lattice) < 0 < 1 < … <
// All (⊤ of the must lattice). In a may-problem the same values are used
// with the roles of top and bottom exchanged, which only affects which
// operator a solver picks as its meet and how results are initialized.
package lattice

import (
	"strconv"
	"strings"
)

// Dist is an element of the iteration-distance chain lattice.
//
// The zero value is None ("no instance"), which is ⊥ for must-problems.
type Dist struct {
	// kind: 0 = none, 1 = finite (val holds distance ≥ 0), 2 = all.
	kind int8
	val  int64
}

// None returns ⊥ of the must lattice: no instance.
func None() Dist { return Dist{kind: 0} }

// All returns ⊤ of the must lattice: all instances.
func All() Dist { return Dist{kind: 2} }

// D returns the finite lattice value for distance n (n ≥ 0; negative n
// collapses to None, mirroring that a negative maximal distance denotes an
// empty instance range).
func D(n int64) Dist {
	if n < 0 {
		return None()
	}
	return Dist{kind: 1, val: n}
}

// IsNone reports x = ⊥ (no instance).
func (x Dist) IsNone() bool { return x.kind == 0 }

// IsAll reports x = ⊤ (all instances).
func (x Dist) IsAll() bool { return x.kind == 2 }

// Finite returns the finite distance and true, or 0 and false for ⊥/⊤.
func (x Dist) Finite() (int64, bool) {
	if x.kind == 1 {
		return x.val, true
	}
	return 0, false
}

// Cmp returns -1, 0, +1 comparing x and y in the chain order
// None < 0 < 1 < … < All.
func (x Dist) Cmp(y Dist) int {
	if x.kind != y.kind {
		if x.kind < y.kind {
			return -1
		}
		return 1
	}
	switch {
	case x.kind != 1 || x.val == y.val:
		return 0
	case x.val < y.val:
		return -1
	default:
		return 1
	}
}

// Eq reports x == y.
func (x Dist) Eq(y Dist) bool { return x.Cmp(y) == 0 }

// Min returns the smaller of x and y: the meet of the must lattice, where
// min(x,⊥)=⊥ and min(x,⊤)=x.
func Min(x, y Dist) Dist {
	if x.Cmp(y) <= 0 {
		return x
	}
	return y
}

// Max returns the larger of x and y: the dual join (and the meet of the
// reverse lattice used by may-problems), where max(x,⊥)=x and max(x,⊤)=⊤.
func Max(x, y Dist) Dist {
	if x.Cmp(y) >= 0 {
		return x
	}
	return y
}

// Inc is the exit-node increment x++: ⊤++ = ⊤, ⊥++ = ⊥, x++ = x+1.
func (x Dist) Inc() Dist {
	if x.kind == 1 {
		return Dist{kind: 1, val: x.val + 1}
	}
	return x
}

// Clamp collapses finite distances ≥ ub−1 to ⊤ when the loop bound ub is
// known: in a loop of UB iterations the maximal meaningful distance is UB−1,
// which denotes the complete range of instances (paper §2).
func (x Dist) Clamp(ub int64) Dist {
	if x.kind == 1 && ub > 0 && x.val >= ub-1 {
		return All()
	}
	return x
}

// SymTop is the chain lattice's symbolic-top element: the value of a
// distance proven to reach (or exceed) a *symbolic* trip count. With a
// constant bound, Clamp collapses distances ≥ UB−1 to ⊤ because they
// denote the complete instance range; when the bound is a symbolic
// expression the same collapse is justified by a range-fact proof
// (rangefacts: distance ≥ UB) instead of integer comparison. The element
// is represented as ⊤ — "all instances" is exactly what a ≥-trip-count
// distance denotes, so the chain order, meets, and the packed SWAR
// encoding are unchanged — but callers that resolve a comparison through
// range facts construct it through SymTop so the provenance is explicit;
// a comparison that does NOT resolve must fall back to the polarity's
// conservative value, never to SymTop.
func SymTop() Dist { return All() }

// Covers reports whether the fact "instances up to distance x" includes
// distance d (with d ≥ 0): d ≤ x.
func (x Dist) Covers(d int64) bool {
	switch x.kind {
	case 2:
		return true
	case 1:
		return d <= x.val
	}
	return false
}

// String renders ⊥ as "_", ⊤ as "T" and finite values as digits, matching
// the compact tuples of the paper's Table 1.
func (x Dist) String() string {
	switch x.kind {
	case 0:
		return "_"
	case 2:
		return "T"
	}
	return strconv.FormatInt(x.val, 10)
}

// writeTo appends the rendering of x to b without allocating intermediates.
func (x Dist) writeTo(b *strings.Builder) {
	switch x.kind {
	case 0:
		b.WriteByte('_')
	case 2:
		b.WriteByte('T')
	default:
		var buf [20]byte
		b.Write(strconv.AppendInt(buf[:0], x.val, 10))
	}
}

// Tuple is a vector of lattice values, one per tracked reference.
type Tuple []Dist

// MeetInto applies the pointwise meet of src into dst using min (must) or
// max (may).
func (dst Tuple) MeetInto(src Tuple, may bool) {
	for i := range dst {
		if may {
			dst[i] = Max(dst[i], src[i])
		} else {
			dst[i] = Min(dst[i], src[i])
		}
	}
}

// Eq reports pointwise equality.
func (dst Tuple) Eq(other Tuple) bool {
	if len(dst) != len(other) {
		return false
	}
	for i := range dst {
		if !dst[i].Eq(other[i]) {
			return false
		}
	}
	return true
}

// Clone copies the tuple.
func (dst Tuple) Clone() Tuple {
	out := make(Tuple, len(dst))
	copy(out, dst)
	return out
}

// Fill sets every component to v and returns dst.
func (dst Tuple) Fill(v Dist) Tuple {
	for i := range dst {
		dst[i] = v
	}
	return dst
}

// String renders the tuple as "(a,b,c)". Rendering goes through one
// strings.Builder sized up front: the naive += concatenation it replaces was
// quadratic in the tuple width, which dominated table rendering on wide
// (many-class) problems.
func (dst Tuple) String() string {
	var b strings.Builder
	b.Grow(2 + 2*len(dst))
	dst.WriteTo(&b)
	return b.String()
}

// WriteTo appends the "(a,b,c)" rendering of the tuple to b; table renderers
// use it to build whole rows in a single builder.
func (dst Tuple) WriteTo(b *strings.Builder) {
	b.WriteByte('(')
	for i, d := range dst {
		if i > 0 {
			b.WriteByte(',')
		}
		d.writeTo(b)
	}
	b.WriteByte(')')
}

// --- Slabs ------------------------------------------------------------------
//
// A slab is a dense rows×m matrix of lattice values held in ONE flat backing
// array, with per-row Tuple views aliasing it. Decoded views of a solver's
// packed rows (trace passes, init snapshots, rendered tables) are slabs, so
// a whole decode costs two allocations instead of one tuple per node.

// Slab allocates an n-row, m-column matrix in one flat backing array and
// returns 1-based row views: rows[0] is nil (node IDs are 1-based) and
// rows[i] for 1 ≤ i ≤ n aliases backing[(i−1)·m : i·m]. Every value starts
// at the zero Dist (⊥ of the must lattice). The row views are full-capacity
// slices of disjoint regions, so writes through one row never bleed into a
// neighbor.
func Slab(n, m int) []Tuple {
	backing := make(Tuple, n*m)
	rows := make([]Tuple, n+1)
	for i := 1; i <= n; i++ {
		rows[i] = backing[(i-1)*m : i*m : i*m]
	}
	return rows
}
