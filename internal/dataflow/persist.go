package dataflow

import (
	"fmt"
	"time"

	"repro/internal/cachefile"
	"repro/internal/ir"
)

// Result state (de)serialization for the persistent solve cache. Only what
// cannot be recomputed deterministically from the loop AST is written: the
// fixed point in its change-point form (rows.go) and the solve counters.
// The graph, class table, pr bitsets, compiled clamps, and reuse facts are
// all pure functions of the canonical loop rendering — which the content
// address already pins — so the restoring side rebuilds them and validates
// the shapes against the decoded payload.
//
// The state is split in two so a loader can be lazy: ResultMeta carries the
// counters and shape (cheap, decoded eagerly — whole-program metrics need
// them even when nobody looks at the facts), and Rows carries the fixed
// point (restored later, alongside the graph rebuild, the first time a
// consumer actually reads the results).

// PersistVersion is the payload layout generation; it feeds the schema hash
// (see driver's disk cache), so bumping it abandons old files wholesale
// rather than risking a misparse. v2 moved the counters ahead of the rows
// and framed the rows as a skippable blob per spec; v3 stored the dense
// rows as one raw little-endian word blob; v4 stores the change-point form
// (rows.go: value width, run starts, node IDs and values) and no longer
// writes the init snapshot, its flag, or the solve's wall time (a stored
// solve reads back as taking none). Which width a solve stores at is the
// writer's choice; every width decodes to the same values.
const PersistVersion = "result-v4"

// ResultMeta is the eagerly-decoded slice of a persisted Result: the solve
// counters and the table shape. It is everything Metrics() reports plus
// what the row decoder needs to validate the deferred rows.
type ResultMeta struct {
	// Nodes and Classes are the table shape (N and m of the paper's O(N·m)
	// bound); the restore validates them against the rebuilt graph.
	Nodes, Classes int

	Passes        int
	ChangedPasses int
	NodeVisits    int
	FlowApps      int
	// Elapsed is the live solve's wall time. It is not persisted, so the
	// same solve stored by two processes gives the same bytes; a decoded
	// meta reads 0.
	Elapsed       time.Duration
	FuelBudget    int64
	FuelExhausted bool
}

// PersistMeta extracts the persistent counters and shape of a live result.
func (res *Result) PersistMeta() ResultMeta {
	return ResultMeta{
		Nodes:         len(res.Graph.Nodes),
		Classes:       len(res.Classes),
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
	w.Uint(uint64(m.Passes))
	w.Uint(uint64(m.ChangedPasses))
	w.Uint(uint64(m.NodeVisits))
	w.Uint(uint64(m.FlowApps))
	w.Int(m.FuelBudget)
	w.Bool(m.FuelExhausted)
}

// DecodeResultMeta reads a meta block; the caller checks r.Err afterwards
// (reads after an error return zero values).
func DecodeResultMeta(r *cachefile.Reader) ResultMeta {
	var m ResultMeta
	m.Nodes = int(r.Uint())
	m.Classes = int(r.Uint())
	m.Passes = int(r.Uint())
	m.ChangedPasses = int(r.Uint())
	m.NodeVisits = int(r.Uint())
	m.FlowApps = int(r.Uint())
	m.FuelBudget = r.Int()
	m.FuelExhausted = r.Bool()
	return m
}

// Rows returns the result's fixed point in change-point form: the bytes a
// disk entry stores and RestoreResult reads. They are immutable and shared;
// callers must not modify them.
func (res *Result) Rows() []byte { return res.rows.b }

// RestoreResult rebuilds a solved Result for spec on g from a meta block
// and the change-point rows of a solve (Rows, or their stored copy), which
// it aliases. The graph must have been built from the same canonical loop
// under the same dims — the class table and pr bitsets are re-derived from
// it, and the rows are validated against its shape, so a payload that does
// not match (stale semantics behind an aliased content address) fails
// rather than producing wrong facts.
func RestoreResult(g *ir.Graph, spec *Spec, meta ResultMeta, rows []byte) (*Result, error) {
	res := &Result{Graph: g, Spec: spec}
	ct := buildClassTable(g, spec.Gen)
	res.adoptClasses(ct)
	n := len(g.Nodes)
	m := len(res.Classes)
	if meta.Nodes != n || meta.Classes != m {
		return nil, fmt.Errorf("dataflow: restored shape %dx%d does not match rebuilt graph %dx%d", meta.Nodes, meta.Classes, n, m)
	}
	cr, err := parseRows(rows, n, m)
	if err != nil {
		return nil, err
	}
	res.rows = cr
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
