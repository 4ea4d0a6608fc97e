package main

import (
	"regexp"
	"strings"
	"testing"
)

// threeSamples is `go test -count 3` output for one gated benchmark whose
// second sample ran into a stall.
const threeSamples = `goos: linux
BenchmarkScalingLinear/bounded-classes/stmts=32/packed-2   	   10000	     81000 ns/op	   70000 B/op	      51 allocs/op
BenchmarkScalingLinear/bounded-classes/stmts=32/packed-2   	   10000	    900000 ns/op	   90000 B/op	      60 allocs/op
BenchmarkScalingLinear/bounded-classes/stmts=32/packed-2   	   10000	     79000 ns/op	   69000 B/op	      51 allocs/op
PASS
`

// TestSamplesReduceToMedians pins the row a -count 3 run records: the
// medians of ns/op, B/op and allocs/op, and the ns/op range.
func TestSamplesReduceToMedians(t *testing.T) {
	rows, err := parseBenchOutput(strings.NewReader(threeSamples))
	if err != nil {
		t.Fatal(err)
	}
	want := Row{NsPerOp: 81000, BytesPerOp: 70000, AllocsPerOp: 51, NsMin: 79000, NsMax: 900000}
	if got := rows["BenchmarkScalingLinear/bounded-classes/stmts=32/packed"]; got != want {
		t.Errorf("row = %+v, want %+v", got, want)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

// TestOutlierSampleCannotFailGates runs the gate, the ratio and the diff
// on a run whose one slow sample alone is far past every limit: the
// medians pass all three.
func TestOutlierSampleCannotFailGates(t *testing.T) {
	rows, err := parseBenchOutput(strings.NewReader(threeSamples))
	if err != nil {
		t.Fatal(err)
	}
	name := "BenchmarkScalingLinear/bounded-classes/stmts=32/packed"
	base := map[string]Row{name: {NsPerOp: 80000}}
	if !gate(gateSpec{baseline: "base.json", pattern: regexp.MustCompile(`/packed$`), factor: 1.25}, base, rows) {
		t.Error("gate failed on one outlier sample")
	}
	if !compare(base, rows, 10) {
		t.Error("diff failed on one outlier sample")
	}
	rows["BenchmarkDen"] = Row{NsPerOp: 100000}
	if !ratio(ratioSpec{num: name, den: "BenchmarkDen", factor: 0.9}, rows) {
		t.Error("ratio failed on one outlier sample")
	}
}
