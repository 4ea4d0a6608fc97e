package dataflow_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/cachefile"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/problems"
	"repro/internal/synth"
)

// selfUseLoop is n statements "Ck[i] := Ck[i-1] + 1", every statement over
// its own array: two classes per array under δ-available values and
// δ-reaching references, a def class plus an extra (use) killer form under
// δ-busy stores.
func selfUseLoop(n int) *ast.Program {
	var b strings.Builder
	b.WriteString("do i = 1, N\n")
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "  C%d[i] := C%d[i-1] + 1\n", k, k)
	}
	b.WriteString("enddo\n")
	return parser.MustParse(b.String())
}

func firstLoopGraph(t *testing.T, prog *ast.Program) *ir.Graph {
	t.Helper()
	g := ir.Build(prog.Body[0].(*ast.DoLoop), nil)
	return g
}

// TestPreserveMemoLinearInRefs pins the per-array preserve memo. A preserve
// distance exists only between a class and a killer over the same array,
// so each array gets its own (kₐ + extraₐ)·2·kₐ block, and on loops whose
// arrays carry a class or two the memo stays within 4 cells per reference.
// An m-wide block per killer form would need over 8.4M cells on each loop
// below.
func TestPreserveMemoLinearInRefs(t *testing.T) {
	check := func(name string, g *ir.Graph, spec *dataflow.Spec) {
		t.Helper()
		cells := dataflow.PreserveMemoCells(g, spec)
		if limit := 4 * len(g.Refs); cells > limit {
			t.Errorf("%s/%s: preserve memo holds %d cells, want ≤ 4·refs = %d", name, spec.Name, cells, limit)
		}
	}
	check("wide-2048", firstLoopGraph(t, synth.WideLoop(2048, 0)), problems.MustReachingDefs())
	selfUse := firstLoopGraph(t, selfUseLoop(2048))
	for _, spec := range problems.StandardSpecs() {
		check("self-use-2048", selfUse, spec)
	}
}

// checkClassesOf asserts that ClassesOf partitions res.Classes by array:
// each array's list holds exactly its classes, in class order.
func checkClassesOf(t *testing.T, label string, res *dataflow.Result) {
	t.Helper()
	if got := res.ClassesOf("no such array"); got != nil {
		t.Errorf("%s: ClassesOf(unknown) = %v, want nil", label, got)
	}
	seen := map[string]bool{}
	total := 0
	for _, c := range res.Classes {
		if seen[c.Array] {
			continue
		}
		seen[c.Array] = true
		last := -1
		for _, d := range res.ClassesOf(c.Array) {
			if d.Array != c.Array || d.Index <= last || res.Classes[d.Index] != d {
				t.Errorf("%s: ClassesOf(%s) holds %s (index %d) after index %d", label, c.Array, d, d.Index, last)
			}
			last = d.Index
			total++
		}
	}
	if total != len(res.Classes) {
		t.Errorf("%s: ClassesOf lists %d classes across arrays, want %d", label, total, len(res.Classes))
	}
}

// TestClassesOfPartitionsClasses checks the per-array accessor on every
// solved example and corpus loop under the standard specs, and on the
// same results restored from their persisted rows.
func TestClassesOfPartitionsClasses(t *testing.T) {
	for i, c := range restoreCases(t) {
		label := fmt.Sprintf("case %d/%s", i, c.spec.Name)
		checkClassesOf(t, label, c.cold)
		r := cachefile.NewReader(c.payload)
		meta := dataflow.DecodeResultMeta(r)
		res, err := dataflow.RestoreResult(c.g, c.spec, meta, r.Blob())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkClassesOf(t, label+"/restored", res)
	}
}
