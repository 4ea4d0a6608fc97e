package lattice

import "math"

// Word-packed rows: m chain-lattice cells stored in ⌈m/lanes⌉ uint64 words,
// one fixed-width lane per cell, so meets, flow applications, and equality
// checks run whole words at a time (SWAR). The packing exploits that the
// chain order None < 0 < 1 < … < All becomes plain unsigned integer order
// under the encoding
//
//	None → 0,   finite d → d+1,   All → laneMax (all lane bits set)
//
// which is injective as long as every finite distance d satisfies
// d ≤ laneMax−2. Solvers pick the lane width (8, 16 or 64 bits) from a bound
// on the finite values a solve can produce; a 64-bit lane (one cell per
// word) holds every int64 distance exactly, so no solve ever saturates.
//
// Lanes past m in the last word are kept zero by every kernel ("tail
// invariant"), so two rows are equal iff their words are equal.

// Lane widths supported by Packing.
const (
	Lane8  = 8
	Lane16 = 16
	Lane64 = 64
)

// MaxFiniteForLane returns the largest finite distance representable in a
// lane of the given width: laneMax−2 (laneMax encodes All, and the encoding
// adds 1 to finite values). A 64-bit lane holds every int64 distance.
func MaxFiniteForLane(lane uint) int64 {
	if lane == Lane64 {
		return math.MaxInt64
	}
	return int64(1)<<lane - 3
}

// Packing is the layout descriptor for word-packed rows of m cells at a
// fixed lane width. The zero value is not usable; construct with NewPacking.
type Packing struct {
	M     int    // cells per row
	Words int    // uint64 words per row
	Lane  uint   // bits per lane: Lane8, Lane16 or Lane64
	All   uint64 // lane value encoding ⊤ (all lane bits set)

	hmask uint64 // per-lane MSB
	lmask uint64 // per-lane LSB
	tail  uint64 // mask of the in-use lanes of the last word
}

// NewPacking builds the layout for m cells at the given lane width.
func NewPacking(m int, lane uint) Packing {
	if lane != Lane8 && lane != Lane16 && lane != Lane64 {
		panic("lattice: unsupported lane width")
	}
	perWord := 64 / int(lane)
	words := (m + perWord - 1) / perWord
	laneMax := ^uint64(0) >> (64 - lane)
	var h, l uint64
	for i := 0; i < perWord; i++ {
		h |= 1 << (uint(i)*lane + lane - 1)
		l |= 1 << (uint(i) * lane)
	}
	tailLanes := m - (words-1)*perWord
	var tail uint64
	if m == 0 {
		tailLanes = 0
	}
	for i := 0; i < tailLanes; i++ {
		tail |= laneMax << (uint(i) * lane)
	}
	return Packing{M: m, Words: words, Lane: lane, All: laneMax, hmask: h, lmask: l, tail: tail}
}

// Encode maps a lattice value to its lane encoding. Finite distances beyond
// the lane capacity are a caller bug (the solver's lane-width selection must
// prevent them) and panic rather than silently aliasing All.
func (p *Packing) Encode(d Dist) uint64 {
	switch d.kind {
	case 0:
		return 0
	case 2:
		return p.All
	}
	e := uint64(d.val) + 1
	if e >= p.All {
		panic("lattice: finite distance exceeds lane capacity")
	}
	return e
}

// Decode maps a lane encoding back to the lattice value.
func (p *Packing) Decode(e uint64) Dist {
	switch e {
	case 0:
		return Dist{}
	case p.All:
		return Dist{kind: 2}
	}
	return Dist{kind: 1, val: int64(e) - 1}
}

// Broadcast replicates a lane value across every lane of one word (including
// tail lanes; mask with Fill when storing into a row).
func (p *Packing) Broadcast(e uint64) uint64 {
	// lmask has a 1 at each lane's LSB, so multiplying spreads e into every
	// lane; lanes are wide enough that the partial products cannot carry.
	return e * p.lmask
}

// Fill sets every cell of the row to the lane value e, keeping tail lanes
// zero.
func (p *Packing) Fill(row []uint64, e uint64) {
	w := p.Broadcast(e)
	for i := range row {
		row[i] = w
	}
	if p.Words > 0 {
		row[p.Words-1] &= p.tail
	}
}

// Cell returns cell i of the row as a lane value.
func (p *Packing) Cell(row []uint64, i int) uint64 {
	per := 64 / int(p.Lane)
	return (row[i/per] >> (uint(i%per) * p.Lane)) & p.All
}

// SetCell stores lane value e into cell i of the row.
func (p *Packing) SetCell(row []uint64, i int, e uint64) {
	per := 64 / int(p.Lane)
	sh := uint(i%per) * p.Lane
	row[i/per] = row[i/per]&^(p.All<<sh) | e<<sh
}

// EncodeRow packs src (length p.M) into row (length p.Words).
func (p *Packing) EncodeRow(row []uint64, src Tuple) {
	for i := range row {
		row[i] = 0
	}
	for i, d := range src {
		p.SetCell(row, i, p.Encode(d))
	}
}

// DecodeRow unpacks row into dst (length p.M). Lanes are peeled word by
// word with shifts; no per-cell index arithmetic.
func (p *Packing) DecodeRow(dst Tuple, row []uint64) {
	per := 64 / int(p.Lane)
	i := 0
	for _, w := range row {
		for k := 0; k < per && i < len(dst); k++ {
			dst[i] = p.Decode(w & p.All)
			w >>= p.Lane
			i++
		}
	}
}

// sub computes the per-lane difference x−y with borrows blocked at lane
// boundaries (Hacker's Delight §2-18): the minuend's lane MSB is forced to 1
// and the subtrahend's to 0, so no lane borrows from its neighbor, then the
// true MSB of each difference is restored by the xor term.
func (p *Packing) sub(x, y uint64) uint64 {
	return ((x | p.hmask) - (y &^ p.hmask)) ^ ((x ^ ^y) & p.hmask)
}

// LtMask returns a full-lane mask (all lane bits set) for every lane where
// x < y as unsigned integers, and zero lanes elsewhere.
func (p *Packing) LtMask(x, y uint64) uint64 {
	d := p.sub(x, y)
	// Per-lane borrow-out of x−y, collected at each lane's MSB.
	b := ((^x & y) | ((^x | y) & d)) & p.hmask
	// Spread each borrow bit across its lane: shift to the lane LSB, then
	// multiply by the all-ones lane value (lane-disjoint, no carries).
	return (b >> (p.Lane - 1)) * p.All
}

// MinInto sets dst = min(dst, src) per lane: the meet of the must lattice.
func (p *Packing) MinInto(dst, src []uint64) {
	for i := range dst {
		x, y := dst[i], src[i]
		m := p.LtMask(x, y)
		dst[i] = x&m | y&^m
	}
}

// MaxInto sets dst = max(dst, src) per lane: the meet of the reverse (may)
// lattice.
func (p *Packing) MaxInto(dst, src []uint64) {
	for i := range dst {
		x, y := dst[i], src[i]
		m := p.LtMask(x, y)
		dst[i] = y&m | x&^m
	}
}

// ApplyBounds computes dst = min(max(in, lo), hi) per lane: the collapsed
// form of a compiled flow function (every gen/preserve op sequence over the
// chain lattice reduces to one such clamp; see internal/dataflow).
func (p *Packing) ApplyBounds(dst, in, lo, hi []uint64) {
	for i := range dst {
		v, l, h := in[i], lo[i], hi[i]
		m := p.LtMask(v, l)
		v = l&m | v&^m // max(v, lo)
		m = p.LtMask(h, v)
		dst[i] = h&m | v&^m // min(v, hi)
	}
}

// IncClamp applies the exit-node transfer in place: every lane with
// 0 < v < All is incremented by one, then (when clamp is set) lanes ≥ ubE
// are saturated to All. ubE must be the encoded clamp threshold ≥ 1, so
// zero (None and tail) lanes are never saturated.
func (p *Packing) IncClamp(row []uint64, ubE uint64, clamp bool) {
	allW := p.Broadcast(p.All)
	var ubW uint64
	if clamp {
		ubW = p.Broadcast(ubE)
	}
	for i := range row {
		v := row[i]
		nz := p.LtMask(0, v)
		notAll := p.LtMask(v, allW)
		// Incremented lanes are < All, so adding the lane LSB cannot carry
		// across a lane boundary.
		v += nz & notAll & p.lmask
		if clamp {
			// Lanes ≥ ubE saturate to All. Zero (None and tail) lanes stay
			// zero because ubE ≥ 1.
			v |= ^p.LtMask(v, ubW)
		}
		row[i] = v
	}
}
