package dataflow

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/lattice"
)

// The stored form of a fixed point. The paper's classes never interact, so
// a class's value changes only at the few nodes where one of its own flow
// functions fires: on wide loops well under 1% of a table's cells differ
// from the same class one node ID earlier. The solver iterates over dense
// word-packed rows in its scratch, and when it finishes it keeps, per set
// (IN, OUT) and per class, only the node IDs where the value changes and
// the value from there on. A cell is read by binary search over its run.
// The same bytes are what the memo holds, for every loop of the same
// content, and what the disk cache writes (PersistVersion result-v4).
//
// Layout, little-endian:
//
//	byte              lane width (8, 16 or 64)
//	uint32 × (2m+1)   run starts: run k = set·m + class (set 0 = IN,
//	                  1 = OUT) holds the change points [start[k], start[k+1])
//	uint32 × p        node IDs, strictly ascending within each run
//	lane/8 bytes × p  lane values (lattice.Packing's encoding)
//
// A cell's value is that of the last change point of its run at or before
// its node ID, and None (lane value 0) before the first. Every point
// differs from the one before it (the first from 0), so one fixed point
// has exactly one encoding.
type changeRows struct {
	// pk decodes lane values; pk.M is the class count.
	pk lattice.Packing
	b  []byte
	// ids and vals are the offsets of the ID and value sections in b.
	ids, vals int
}

var le = binary.LittleEndian

// start returns the first change point of run k (k = 2m gives the total).
func (cr *changeRows) start(k int) int { return int(le.Uint32(cr.b[1+4*k:])) }

// id returns change point j's node ID.
func (cr *changeRows) id(j int) int { return int(le.Uint32(cr.b[cr.ids+4*j:])) }

// lane returns change point j's lane value.
func (cr *changeRows) lane(j int) uint64 {
	off := cr.vals + j*int(cr.pk.Lane/8)
	switch cr.pk.Lane {
	case lattice.Lane8:
		return uint64(cr.b[off])
	case lattice.Lane16:
		return uint64(le.Uint16(cr.b[off:]))
	}
	return le.Uint64(cr.b[off:])
}

// at returns the value of class ci at node id in set s (0 = IN, 1 = OUT).
func (cr *changeRows) at(s, id, ci int) lattice.Dist {
	k := s*cr.pk.M + ci
	first, lo, hi := cr.start(k), cr.start(k), cr.start(k+1)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cr.id(mid) <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == first {
		return lattice.None()
	}
	return cr.pk.Decode(cr.lane(lo - 1))
}

// decode unpacks set s into a fresh 1-based slab of n rows.
func (cr *changeRows) decode(s, n int) []lattice.Tuple {
	m := cr.pk.M
	rows := lattice.Slab(n, m)
	for ci := 0; ci < m; ci++ {
		hi := cr.start(s*m + ci + 1)
		for j := cr.start(s*m + ci); j < hi; j++ {
			to := n + 1
			if j+1 < hi {
				to = cr.id(j + 1)
			}
			v := cr.pk.Decode(cr.lane(j))
			for id := cr.id(j); id < to; id++ {
				rows[id][ci] = v
			}
		}
	}
	return rows
}

// change is one change point while encoding: run k, node id, lane value e.
type change struct {
	k, id int32
	e     uint64
}

// appendChanges appends to dst a change for every cell of the n dense rows
// in rows whose lane value differs from the same cell one node ID earlier
// (node 1's from 0), in node-ID order; run numbers start at base. Rows are
// compared a word at a time, so an unchanged word costs one compare; tail
// lanes are zero in every row and never report.
func appendChanges(dst []change, pk *lattice.Packing, n int, rows []uint64, base int) []change {
	w := pk.Words
	per := 64 / int(pk.Lane)
	var prev []uint64 // node 0's row: no words, read as zeros
	for id := 1; id <= n; id++ {
		row := rows[(id-1)*w : id*w]
		for k, x := range row {
			d := x
			if k < len(prev) {
				d ^= prev[k]
			}
			for d != 0 {
				lane := bits.TrailingZeros64(d) / int(pk.Lane)
				sh := uint(lane) * pk.Lane
				dst = append(dst, change{k: int32(base + k*per + lane), id: int32(id), e: x >> sh & pk.All})
				d &^= pk.All << sh
			}
		}
		prev = row
	}
	return dst
}

// encodeRows compresses the dense IN and OUT rows of n nodes into change
// points: one pass over the rows collects them in node order, and a
// counting sort by run writes them into the result, allocated once at its
// final size. sc lends the collection and the counts.
func encodeRows(pk *lattice.Packing, n int, in, out []uint64, sc *Scratch) changeRows {
	m := pk.M
	pts := appendChanges(sc.changes[:0], pk, n, in, 0)
	pts = appendChanges(pts, pk, n, out, m)
	sc.changes = pts
	starts := grow(&sc.runs, 2*m+1)
	clear(starts)
	for _, c := range pts {
		starts[c.k+1]++
	}
	for k := 1; k <= 2*m; k++ {
		starts[k] += starts[k-1]
	}
	width := int(pk.Lane / 8)
	cr := changeRows{pk: *pk, ids: 1 + 4*(2*m+1)}
	cr.vals = cr.ids + 4*len(pts)
	cr.b = make([]byte, cr.vals+width*len(pts))
	cr.b[0] = byte(pk.Lane)
	for k, s := range starts {
		le.PutUint32(cr.b[1+4*k:], s)
	}
	// starts now serves as each run's write cursor; points arrive in node
	// order within each run, so every run's IDs ascend.
	for _, c := range pts {
		j := int(starts[c.k])
		starts[c.k]++
		le.PutUint32(cr.b[cr.ids+4*j:], uint32(c.id))
		switch off := cr.vals + width*j; width {
		case 1:
			cr.b[off] = byte(c.e)
		case 2:
			le.PutUint16(cr.b[off:], uint16(c.e))
		default:
			le.PutUint64(cr.b[off:], c.e)
		}
	}
	return cr
}

// parseRows validates b as the change-point form of an n-node, m-class
// fixed point and returns a reader over it; b is aliased, not copied.
func parseRows(b []byte, n, m int) (changeRows, error) {
	if len(b) == 0 {
		return changeRows{}, fmt.Errorf("dataflow: restored rows are empty")
	}
	lane := uint(b[0])
	if lane != lattice.Lane8 && lane != lattice.Lane16 && lane != lattice.Lane64 {
		return changeRows{}, fmt.Errorf("dataflow: restored lane width %d is not 8, 16 or 64", lane)
	}
	cr := changeRows{pk: lattice.NewPacking(m, lane), b: b, ids: 1 + 4*(2*m+1)}
	if len(b) < cr.ids {
		return changeRows{}, fmt.Errorf("dataflow: restored rows hold %d bytes, too few for %d runs", len(b), 2*m)
	}
	p := cr.start(2 * m)
	width := int(lane / 8)
	if cr.start(0) != 0 || p > len(b) || len(b) != cr.ids+(4+width)*p {
		return changeRows{}, fmt.Errorf("dataflow: restored rows hold %d bytes, not %d change points", len(b), p)
	}
	cr.vals = cr.ids + 4*p
	for k := 0; k < 2*m; k++ {
		lo, hi := cr.start(k), cr.start(k+1)
		if hi < lo || hi > p {
			return changeRows{}, fmt.Errorf("dataflow: restored run %d spans [%d, %d) of %d points", k, lo, hi, p)
		}
		last, prev := 0, uint64(0)
		for j := lo; j < hi; j++ {
			id, e := cr.id(j), cr.lane(j)
			if id <= last || id > n || e == prev {
				return changeRows{}, fmt.Errorf("dataflow: restored run %d has change point (n%d, %d) after (n%d, %d)", k, id, e, last, prev)
			}
			last, prev = id, e
		}
	}
	return cr, nil
}
