package dataflow_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ast"
	"repro/internal/cachefile"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/problems"
)

// restoreCase is one solved (graph, spec) of the example corpus with its
// persisted encoding: the meta block followed by the row blob, framed as
// the driver's disk cache frames each spec.
type restoreCase struct {
	g       *ir.Graph
	spec    *dataflow.Spec
	cold    *dataflow.Result
	payload []byte
}

// restoreCases solves every loop of every parseable example, and of the
// differential corpus (whose lane loops pack at 16 and 64 bits), under the
// standard specs and encodes each result.
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
			g, err := ir.Build(loop, nil)
			if err != nil {
				return true
			}
			for _, spec := range problems.StandardSpecs() {
				res := dataflow.Solve(g, spec, nil)
				var w, rw cachefile.Writer
				res.PersistMeta().Encode(&w)
				res.EncodeRows(&rw)
				w.Blob(rw.Bytes())
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
// the cold solve's fixed point and init snapshot.
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
		fixed, init := res.TupleTable(-1), res.TupleTable(0)
		for _, nd := range c.g.Nodes {
			for _, cl := range res.Classes {
				res.InAt(nd, cl)
				res.OutAt(nd, cl)
				res.Pr(cl, nd)
			}
		}
		if !seed {
			return
		}
		if want := c.cold.TupleTable(-1); fixed != want {
			t.Errorf("%s: restored fixed point differs:\n%s\nwant:\n%s", c.spec.Name, fixed, want)
		}
		if want := c.cold.TupleTable(0); init != want {
			t.Errorf("%s: restored init snapshot differs:\n%s\nwant:\n%s", c.spec.Name, init, want)
		}
		if got, want := res.Metrics(), c.cold.Metrics(); got != want {
			t.Errorf("%s: restored metrics %+v, want %+v", c.spec.Name, got, want)
		}
	})
}
