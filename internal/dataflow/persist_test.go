package dataflow_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ast"
	"repro/internal/cachefile"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/problems"
	"repro/internal/synth"
)

// restoreCase is one solved (graph, spec) of the example corpus with its
// persisted encoding: the meta block followed by the change-point rows,
// framed as the driver's disk cache frames each spec.
type restoreCase struct {
	g       *ir.Graph
	spec    *dataflow.Spec
	cold    *dataflow.Result
	payload []byte
}

// restoreCases solves every loop of every parseable example, of the
// differential corpus (whose lane16 and lane64 loops store their values at
// 16 and 64 bits) and of three wide loops (whose rows barely change from
// node to node), under the standard specs, and encodes each result.
func restoreCases(tb testing.TB) []restoreCase {
	tb.Helper()
	paths, _ := filepath.Glob(filepath.Join("..", "..", "examples", "*.loop"))
	if len(paths) == 0 {
		tb.Fatal("no example programs found")
	}
	var srcs [][]byte
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	corpus := differentialSources()
	for _, name := range sortedNames(corpus) {
		srcs = append(srcs, []byte(corpus[name]))
	}
	for _, wide := range []*ast.Program{synth.WideLoop(512, 0), synth.WideLoop(768, 0),
		synth.Loop(synth.Params{Seed: 1, Stmts: 1024, Arrays: 4, MaxDist: 5, CondProb: 0.2})} {
		srcs = append(srcs, []byte(ast.ProgramString(wide)))
	}
	var cases []restoreCase
	for _, src := range srcs {
		prog, err := parser.ParseBytes(src, nil)
		if err != nil {
			continue // some examples are intentionally invalid
		}
		ast.Inspect(prog.Body, func(n ast.Node) bool {
			loop, ok := n.(*ast.DoLoop)
			if !ok {
				return true
			}
			g := ir.Build(loop, nil)
			for _, spec := range problems.StandardSpecs() {
				res := dataflow.Solve(g, spec, nil)
				var w cachefile.Writer
				res.PersistMeta().Encode(&w)
				w.Blob(res.Rows())
				cases = append(cases, restoreCase{g, spec, res, w.Bytes()})
			}
			return true
		})
	}
	return cases
}

// FuzzRestoreResult feeds the persisted-row decoder arbitrary payloads
// against the example corpus's graphs: every payload must either be
// rejected with an error or restore to a Result whose tables and cells
// read without panicking, and an unmodified seed must restore to exactly
// the cold solve's fixed point, cell by cell.
func FuzzRestoreResult(f *testing.F) {
	cases := restoreCases(f)
	for i, c := range cases {
		f.Add(uint16(i), c.payload)
	}
	f.Fuzz(func(t *testing.T, idx uint16, payload []byte) {
		c := cases[int(idx)%len(cases)]
		seed := bytes.Equal(payload, c.payload)
		r := cachefile.NewReader(payload)
		meta := dataflow.DecodeResultMeta(r)
		rows := r.Blob()
		if r.Err() != nil || !r.Done() {
			if seed {
				t.Fatalf("%s: seed payload does not decode: %v", c.spec.Name, r.Err())
			}
			return
		}
		res, err := dataflow.RestoreResult(c.g, c.spec, meta, rows)
		if err != nil {
			if seed {
				t.Fatalf("%s: seed payload does not restore: %v", c.spec.Name, err)
			}
			return
		}
		fixed := res.TupleTable(-1)
		for _, nd := range c.g.Nodes {
			for _, cl := range res.Classes {
				in, out := res.InAt(nd, cl), res.OutAt(nd, cl)
				res.Pr(cl, nd)
				if seed && (!in.Eq(c.cold.InAt(nd, cl)) || !out.Eq(c.cold.OutAt(nd, cl))) {
					t.Fatalf("%s: restored cell (n%d, %s) = (%s, %s), want (%s, %s)", c.spec.Name, nd.ID, cl,
						in, out, c.cold.InAt(nd, cl), c.cold.OutAt(nd, cl))
				}
			}
		}
		if !seed {
			return
		}
		if want := c.cold.TupleTable(-1); fixed != want {
			t.Errorf("%s: restored fixed point differs:\n%s\nwant:\n%s", c.spec.Name, fixed, want)
		}
		// The wall time is not persisted: a restored solve took none.
		want := c.cold.Metrics()
		want.Elapsed = 0
		if got := res.Metrics(); got != want {
			t.Errorf("%s: restored metrics %+v, want %+v", c.spec.Name, got, want)
		}
	})
}

// TestRestoreRejectsMalformedRows damages a solved loop's change-point
// rows one field at a time (the layout rows.go documents): every damaged
// payload must be refused with an error, since a reader trusts the run
// bounds, the ID order and range, and the change-point canon.
func TestRestoreRejectsMalformedRows(t *testing.T) {
	// A solve stored at 8 bits with a run of two or more points; j is that
	// run's first point.
	var c restoreCase
	j := -1
	for _, rc := range restoreCases(t) {
		if rc.cold.Rows()[0] != 8 {
			continue
		}
		if j = longRun(rc.cold.Rows(), len(rc.cold.Classes)); j >= 0 {
			c = rc
			break
		}
	}
	if j < 0 {
		t.Fatal("no corpus solve has a run of two change points at 8-bit values")
	}
	rows := c.cold.Rows()
	n, m := len(c.g.Nodes), len(c.cold.Classes)
	ids := 1 + 4*(2*m+1)
	vals := ids + 4*le32(rows, 1+4*2*m)
	damage := map[string]func(b []byte) []byte{
		"empty":          func(b []byte) []byte { return nil },
		"value width 7":  func(b []byte) []byte { b[0] = 7; return b },
		"truncated":      func(b []byte) []byte { return b[:len(b)-1] },
		"trailing byte":  func(b []byte) []byte { return append(b, 0) },
		"runs only":      func(b []byte) []byte { return b[:ids-1] },
		"first run at 1": func(b []byte) []byte { put32(b, 1, 1); return b },
		"IDs descending": func(b []byte) []byte {
			a, z := le32(b, ids+4*j), le32(b, ids+4*(j+1))
			put32(b, ids+4*j, z)
			put32(b, ids+4*(j+1), a)
			return b
		},
		"ID 0":             func(b []byte) []byte { put32(b, ids+4*j, 0); return b },
		"ID past n":        func(b []byte) []byte { put32(b, ids+4*(j+1), n+1); return b },
		"repeated value":   func(b []byte) []byte { b[vals+j+1] = b[vals+j]; return b },
		"first value is 0": func(b []byte) []byte { b[vals+j] = 0; return b },
	}
	for name, f := range damage {
		b := f(append([]byte(nil), rows...))
		if _, err := dataflow.RestoreResult(c.g, c.spec, c.cold.PersistMeta(), b); err == nil {
			t.Errorf("%s: restored without an error", name)
		}
	}
	if _, err := dataflow.RestoreResult(c.g, c.spec, c.cold.PersistMeta(), rows); err != nil {
		t.Fatalf("undamaged rows: %v", err)
	}
}

// longRun returns the first point of the first run of rows holding two or
// more points, or -1.
func longRun(rows []byte, m int) int {
	for k := 0; k < 2*m; k++ {
		if lo := le32(rows, 1+4*k); le32(rows, 1+4*(k+1))-lo >= 2 {
			return lo
		}
	}
	return -1
}

func le32(b []byte, off int) int { return int(binary.LittleEndian.Uint32(b[off:])) }

func put32(b []byte, off, v int) { binary.LittleEndian.PutUint32(b[off:], uint32(v)) }
