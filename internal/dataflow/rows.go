package dataflow

import (
	"encoding/binary"
	"fmt"

	"repro/internal/lattice"
)

// The stored form of a fixed point. The paper's classes never interact, so
// a class's value changes only at the few nodes where one of its own flow
// functions fires or its inputs disagree: on wide loops well under 1% of a
// table's cells differ from the same class one node ID earlier. The solver
// walks each class over just those nodes and keeps, per set (IN, OUT) and
// per class, only the node IDs where the value changes and the value from
// there on. A cell is read by binary search over its run. The same bytes
// are what the memo holds, for every loop of the same content, and what
// the disk cache writes (PersistVersion result-v4).
//
// Values are the lattice's codes (lattice.Code), with All all ones at the
// value width: the narrowest of 8, 16 and 64 bits whose all-ones value
// lies above the fixed point's largest finite code.
//
// Layout, little-endian:
//
//	byte              value width w (8, 16 or 64)
//	uint32 × (2m+1)   run starts: run k = set·m + class (set 0 = IN,
//	                  1 = OUT) holds the change points [start[k], start[k+1])
//	uint32 × p        node IDs, strictly ascending within each run
//	w/8 bytes × p     values
//
// A cell's value is that of the last change point of its run at or before
// its node ID, and None (code 0) before the first. Every point differs
// from the one before it (the first from 0), so one fixed point has
// exactly one encoding at a given width.
type changeRows struct {
	m, width int // class count, value width in bits
	b        []byte
	// ids and vals are the offsets of the ID and value sections in b.
	ids, vals int
}

var le = binary.LittleEndian

// start returns the first change point of run k (k = 2m gives the total).
func (cr *changeRows) start(k int) int { return int(le.Uint32(cr.b[1+4*k:])) }

// id returns change point j's node ID.
func (cr *changeRows) id(j int) int { return int(le.Uint32(cr.b[cr.ids+4*j:])) }

// code returns change point j's code, with a narrow width's all-ones read
// as All.
func (cr *changeRows) code(j int) uint64 {
	size := cr.width / 8
	var e uint64
	for i, c := range cr.b[cr.vals+j*size : cr.vals+(j+1)*size] {
		e |= uint64(c) << (8 * i)
	}
	if cr.width < 64 && e == 1<<cr.width-1 {
		return lattice.CodeAll
	}
	return e
}

// at returns the value of class ci at node id in set s (0 = IN, 1 = OUT).
func (cr *changeRows) at(s, id, ci int) lattice.Dist {
	k := s*cr.m + ci
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
	return lattice.FromCode(cr.code(lo - 1))
}

// decode unpacks set s into a fresh 1-based slab of n rows.
func (cr *changeRows) decode(s, n int) []lattice.Tuple {
	m := cr.m
	rows := lattice.Slab(n, m)
	for ci := 0; ci < m; ci++ {
		hi := cr.start(s*m + ci + 1)
		for j := cr.start(s*m + ci); j < hi; j++ {
			to := n + 1
			if j+1 < hi {
				to = cr.id(j + 1)
			}
			v := lattice.FromCode(cr.code(j))
			for id := cr.id(j); id < to; id++ {
				rows[id][ci] = v
			}
		}
	}
	return rows
}

// rowBuilder collects a fixed point's change points one class at a time,
// in class order, and writes them in the stored form.
type rowBuilder struct {
	// ids and vals hold set s's change points (0 = IN, 1 = OUT), class
	// after class; ends[s][c] is where class c's run ends.
	ids  [2][]uint32
	vals [2][]uint64
	ends [2][]uint32
	last [2]uint64 // the current class's codes so far
	max  uint64    // the largest finite code collected
}

func (b *rowBuilder) reset() {
	for s := range 2 {
		b.ids[s], b.vals[s], b.ends[s] = b.ids[s][:0], b.vals[s][:0], b.ends[s][:0]
	}
	b.last, b.max = [2]uint64{}, 0
}

// put records that the current class holds in in IN and out in OUT from
// node id on; calls come in ascending ID order.
func (b *rowBuilder) put(id int, in, out uint64) {
	b.add(0, id, in)
	b.add(1, id, out)
}

func (b *rowBuilder) add(s, id int, e uint64) {
	if e == b.last[s] {
		return
	}
	b.last[s] = e
	b.ids[s] = append(b.ids[s], uint32(id))
	b.vals[s] = append(b.vals[s], e)
	if e != lattice.CodeAll && e > b.max {
		b.max = e
	}
}

// end closes the current class's runs.
func (b *rowBuilder) end() {
	for s := range 2 {
		b.ends[s] = append(b.ends[s], uint32(len(b.ids[s])))
		b.last[s] = 0
	}
}

// degrade replaces whatever was collected with the claim-nothing fixed
// point of m classes: None everywhere for must-problems, All for
// may-problems.
func (b *rowBuilder) degrade(m int, may bool) {
	b.reset()
	for range m {
		if may {
			b.put(1, lattice.CodeAll, lattice.CodeAll)
		}
		b.end()
	}
}

// rows writes the collected change points in the stored form.
func (b *rowBuilder) rows() changeRows {
	m := len(b.ends[0])
	width := 64
	switch {
	case b.max < 0xFF:
		width = 8
	case b.max < 0xFFFF:
		width = 16
	}
	in, p := len(b.ids[0]), len(b.ids[0])+len(b.ids[1])
	cr := changeRows{m: m, width: width, ids: 1 + 4*(2*m+1)}
	cr.vals = cr.ids + 4*p
	cr.b = make([]byte, cr.vals+width/8*p)
	cr.b[0] = byte(width)
	for c := 0; c < m; c++ {
		le.PutUint32(cr.b[1+4*(c+1):], b.ends[0][c])
		le.PutUint32(cr.b[1+4*(m+c+1):], uint32(in)+b.ends[1][c])
	}
	j := 0
	for s := range 2 {
		for i, id := range b.ids[s] {
			le.PutUint32(cr.b[cr.ids+4*j:], id)
			for k := range width / 8 {
				cr.b[cr.vals+width/8*j+k] = byte(b.vals[s][i] >> (8 * k))
			}
			j++
		}
	}
	return cr
}

// entry decodes the collected change points of n nodes as a trace
// snapshot.
func (b *rowBuilder) entry(n int) TraceEntry {
	cr := b.rows()
	return TraceEntry{In: cr.decode(0, n), Out: cr.decode(1, n)}
}

// parseRows validates b as the change-point form of an n-node, m-class
// fixed point and returns a reader over it; b is aliased, not copied.
func parseRows(b []byte, n, m int) (changeRows, error) {
	if len(b) == 0 {
		return changeRows{}, fmt.Errorf("dataflow: restored rows are empty")
	}
	width := int(b[0])
	if width != 8 && width != 16 && width != 64 {
		return changeRows{}, fmt.Errorf("dataflow: restored value width %d is not 8, 16 or 64", width)
	}
	cr := changeRows{m: m, width: width, b: b, ids: 1 + 4*(2*m+1)}
	if len(b) < cr.ids {
		return changeRows{}, fmt.Errorf("dataflow: restored rows hold %d bytes, too few for %d runs", len(b), 2*m)
	}
	p := cr.start(2 * m)
	if cr.start(0) != 0 || p > len(b) || len(b) != cr.ids+(4+width/8)*p {
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
			id, e := cr.id(j), cr.code(j)
			if id <= last || id > n || e == prev {
				return changeRows{}, fmt.Errorf("dataflow: restored run %d has change point (n%d, %d) after (n%d, %d)", k, id, e, last, prev)
			}
			last, prev = id, e
		}
	}
	return cr, nil
}
