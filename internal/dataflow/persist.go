package dataflow

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/cachefile"
	"repro/internal/ir"
	"repro/internal/lattice"
)

// Result state (de)serialization for the persistent solve cache. Only what
// cannot be recomputed deterministically from the loop AST is written: the
// packed fixed-point IN/OUT rows, the initialization-pass snapshot, and the
// solve counters. The graph, class table, pr bitsets, compiled clamps, and
// reuse facts are all pure functions of the canonical loop rendering — which
// the content address already pins — so the restoring side rebuilds them
// and validates the shapes against the decoded payload.
//
// The state is split in two so a loader can be lazy: ResultMeta carries the
// counters and shape (cheap, decoded eagerly — whole-program metrics need
// them even when nobody looks at the facts), and EncodeRows carries the
// packed rows (bulky, restored later, alongside the graph rebuild, the
// first time a consumer actually reads the results).

// PersistVersion is the payload layout generation; it feeds the schema hash
// (see driver's disk cache), so bumping it abandons old files wholesale
// rather than risking a misparse. v2 moved the counters ahead of the rows
// and framed the rows as a skippable blob per spec; v3 stores the rows
// packed: the lane width and one raw little-endian word blob.
const PersistVersion = "result-v3"

// ResultMeta is the eagerly-decoded slice of a persisted Result: the solve
// counters and the slab shape. It is everything Metrics() reports plus what
// the row decoder needs to validate the deferred slabs.
type ResultMeta struct {
	// Nodes and Classes are the slab shape (N and m of the paper's O(N·m)
	// bound); the restore validates them against the rebuilt graph.
	Nodes, Classes int
	// HasInit records whether an initialization-pass snapshot follows the
	// fixed point in the row block.
	HasInit bool

	Passes        int
	ChangedPasses int
	NodeVisits    int
	FlowApps      int
	Elapsed       time.Duration
	FuelBudget    int64
	FuelExhausted bool
}

// PersistMeta extracts the persistent counters and shape of a live result.
func (res *Result) PersistMeta() ResultMeta {
	return ResultMeta{
		Nodes:         len(res.Graph.Nodes),
		Classes:       len(res.Classes),
		HasInit:       res.hasInit,
		Passes:        res.Passes,
		ChangedPasses: res.ChangedPasses,
		NodeVisits:    res.NodeVisits,
		FlowApps:      res.FlowApps,
		Elapsed:       res.Elapsed,
		FuelBudget:    res.FuelBudget,
		FuelExhausted: res.FuelExhausted,
	}
}

// Metrics converts the persisted counters back to the solver metrics a
// fresh solve would report, so a lazy load can feed whole-program metrics
// without touching the deferred rows.
func (m ResultMeta) Metrics() Metrics {
	return Metrics{
		Nodes:         m.Nodes,
		Classes:       m.Classes,
		Passes:        m.Passes,
		ChangedPasses: m.ChangedPasses,
		NodeVisits:    m.NodeVisits,
		FlowApps:      m.FlowApps,
		Elapsed:       m.Elapsed,
		FuelExhausted: m.FuelExhausted,
	}
}

// Encode appends the meta block to w.
func (m ResultMeta) Encode(w *cachefile.Writer) {
	w.Uint(uint64(m.Nodes))
	w.Uint(uint64(m.Classes))
	w.Bool(m.HasInit)
	w.Uint(uint64(m.Passes))
	w.Uint(uint64(m.ChangedPasses))
	w.Uint(uint64(m.NodeVisits))
	w.Uint(uint64(m.FlowApps))
	w.Int(int64(m.Elapsed))
	w.Int(m.FuelBudget)
	w.Bool(m.FuelExhausted)
}

// DecodeResultMeta reads a meta block; the caller checks r.Err afterwards
// (reads after an error return zero values).
func DecodeResultMeta(r *cachefile.Reader) ResultMeta {
	var m ResultMeta
	m.Nodes = int(r.Uint())
	m.Classes = int(r.Uint())
	m.HasInit = r.Bool()
	m.Passes = int(r.Uint())
	m.ChangedPasses = int(r.Uint())
	m.NodeVisits = int(r.Uint())
	m.FlowApps = int(r.Uint())
	m.Elapsed = time.Duration(r.Int())
	m.FuelBudget = r.Int()
	m.FuelExhausted = r.Bool()
	return m
}

// EncodeRows appends the result's packed lattice state — the fixed-point
// IN/OUT rows and, when present, the initialization-pass snapshot — to w as
// the lane width followed by one blob of little-endian words. Varints would
// not pay: a full 8-bit-lane word takes 10 varint bytes. The shape and the
// snapshot's presence travel in the ResultMeta block, which must be
// encoded alongside.
func (res *Result) EncodeRows(w *cachefile.Writer) {
	w.Uint(uint64(res.pk.Lane))
	b := make([]byte, 0, 8*len(res.rows))
	for _, x := range res.rows {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	w.Blob(b)
}

// RestoreResult rebuilds a solved Result for spec on g from a meta block
// and the row bytes written by EncodeRows. The graph must have been built
// from the same canonical loop under the same dims — the class table and pr
// bitsets are re-derived from it, and the lane width and row sizes are
// validated against it, so a payload that does not match (stale semantics
// behind an aliased content address) fails rather than producing wrong
// facts.
func RestoreResult(g *ir.Graph, spec *Spec, meta ResultMeta, rows []byte) (*Result, error) {
	res := &Result{Graph: g, Spec: spec}
	ct := buildClassTable(g, spec.Gen)
	res.adoptClasses(ct)
	n := len(g.Nodes)
	m := len(res.Classes)
	if meta.Nodes != n || meta.Classes != m {
		return nil, fmt.Errorf("dataflow: restored shape %dx%d does not match rebuilt graph %dx%d", meta.Nodes, meta.Classes, n, m)
	}
	r := cachefile.NewReader(rows)
	lane := r.Uint()
	blob := r.Blob()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if !r.Done() {
		return nil, fmt.Errorf("dataflow: trailing bytes after restored rows")
	}
	if lane != lattice.Lane8 && lane != lattice.Lane16 && lane != lattice.Lane64 {
		return nil, fmt.Errorf("dataflow: restored lane width %d is not 8, 16 or 64", lane)
	}
	res.pk = lattice.NewPacking(m, uint(lane))
	sets := 2
	if meta.HasInit {
		sets = 4
	}
	if want := sets * n * res.pk.Words * 8; len(blob) != want {
		return nil, fmt.Errorf("dataflow: restored rows hold %d bytes, want %d", len(blob), want)
	}
	res.rows = make([]uint64, len(blob)/8)
	for i := range res.rows {
		res.rows[i] = binary.LittleEndian.Uint64(blob[8*i:])
	}
	res.hasInit = meta.HasInit
	res.prZero = prZeroRows(g, ct, spec.Backward)
	res.Passes = meta.Passes
	res.ChangedPasses = meta.ChangedPasses
	res.NodeVisits = meta.NodeVisits
	res.FlowApps = meta.FlowApps
	res.Elapsed = meta.Elapsed
	res.FuelBudget = meta.FuelBudget
	res.FuelExhausted = meta.FuelExhausted
	return res, nil
}
