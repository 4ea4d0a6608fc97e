// Command benchjson converts `go test -bench` output into a stable JSON
// document mapping benchmark name → {ns_per_op, b_per_op, allocs_per_op}.
// It reads the benchmark output on stdin (or a prior JSON snapshot named as
// the sole positional argument) and writes JSON to stdout (or to the file
// named by -o). scripts/bench.sh uses it to record the repo's perf
// trajectory snapshots (BENCH_PR9.json, and BENCH_PR10.json for the
// corpus sweep) and to gate them against BENCH_PR4.json.
//
// Output from `go test -count N` carries N samples per benchmark. Each row
// records the median of the samples' ns/op, B/op and allocs/op, and the
// fastest and slowest ns/op as ns_min and ns_max; every comparison below
// reads the medians, so one outlier sample cannot pass or fail a check.
//
// With -diff BASELINE.json it additionally compares the new measurements
// against the baseline snapshot and exits 1 if any benchmark present in
// both regressed by more than -tol percent ns/op (default 10). Benchmarks
// only one side knows about are reported but never fail the run.
//
// With -gate BASELINE.json:PATTERN:FACTOR (repeatable) it enforces a hard
// per-benchmark ceiling: every baseline benchmark whose name matches the
// regexp PATTERN must be present in the new measurements at no more than
// FACTOR × its baseline ns/op. Unlike -diff, a gated benchmark that is
// missing from the new run fails the gate — a gate names benchmarks that
// must exist. scripts/bench.sh uses it to hold the solver's
// ScalingLinear/…/packed points to within 1.25× of BENCH_PR4.json.
//
// With -ratio NUM:DEN:FACTOR (repeatable) it enforces a relationship inside
// the new snapshot itself: benchmark NUM (exact name) must run at no more
// than FACTOR × benchmark DEN's ns/op, and both must exist. scripts/bench.sh
// uses it to hold disk-warm whole-program analysis to ≤ 0.5× the cold run.
//
// With -corpus REPORT.json it merges a cmd/corpus self-analysis report into
// the snapshot as pseudo-rows (value carried in the ns_per_op slot):
// CorpusVerdicts/{parallel,racy,unknown} carry the per-verdict unit counts,
// CorpusVerdicts/provablyClassified the percentage of verdict-bearing units
// classified provably (parallel or racy), and CorpusDifferential/mismatch
// the differential-execution mismatch count. -floor NAME:MIN and
// -ceiling NAME:MAX (repeatable) then gate those rows: the named row must
// exist with value ≥ MIN (floor) or ≤ MAX (ceiling). scripts/bench.sh uses
// the trio to record the symbolic-bound sweep into BENCH_PR10.json and hold
// the provably-classified fraction at its floor with zero mismatches.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Row is the recorded measurement of one benchmark: the medians of its
// samples, and the range of their ns/op (absent from snapshots recorded
// before samples were kept, and from corpus pseudo-rows).
type Row struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	NsMin       float64 `json:"ns_min,omitempty"`
	NsMax       float64 `json:"ns_max,omitempty"`
}

// cpuSuffix strips the trailing GOMAXPROCS marker (e.g. "-8") go test
// appends to benchmark names, so keys stay stable across machines.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// gateSpec is one parsed -gate flag: every baseline benchmark matching
// pattern must appear in the current run at ≤ factor × baseline ns/op.
type gateSpec struct {
	baseline string
	pattern  *regexp.Regexp
	factor   float64
}

// ratioSpec is one parsed -ratio flag: within the current snapshot, the NUM
// benchmark's ns/op must be ≤ factor × the DEN benchmark's ns/op. Unlike
// -gate it needs no baseline file, so it can assert relationships the run
// itself must exhibit (disk-warm analysis ≤ 0.5× cold).
type ratioSpec struct {
	num, den string
	factor   float64
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	diff := flag.String("diff", "", "baseline JSON snapshot to compare against")
	tol := flag.Float64("tol", 10, "ns/op regression tolerance in percent for -diff")
	var gates []gateSpec
	flag.Func("gate", "repeatable BASELINE.json:PATTERN:FACTOR — fail unless every baseline benchmark matching PATTERN is measured at ≤ FACTOR × its baseline ns/op", func(s string) error {
		parts := strings.SplitN(s, ":", 3)
		if len(parts) != 3 {
			return fmt.Errorf("want BASELINE.json:PATTERN:FACTOR, got %q", s)
		}
		re, err := regexp.Compile(parts[1])
		if err != nil {
			return fmt.Errorf("pattern %q: %v", parts[1], err)
		}
		factor, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || factor <= 0 {
			return fmt.Errorf("factor %q: want a positive number", parts[2])
		}
		gates = append(gates, gateSpec{baseline: parts[0], pattern: re, factor: factor})
		return nil
	})
	corpus := flag.String("corpus", "", "cmd/corpus report JSON to merge as CorpusVerdicts/CorpusDifferential pseudo-rows")
	var bounds []boundSpec
	flag.Func("floor", "repeatable NAME:MIN — fail unless row NAME exists with value ≥ MIN", func(s string) error {
		b, err := parseBound(s, true)
		if err != nil {
			return err
		}
		bounds = append(bounds, b)
		return nil
	})
	flag.Func("ceiling", "repeatable NAME:MAX — fail unless row NAME exists with value ≤ MAX", func(s string) error {
		b, err := parseBound(s, false)
		if err != nil {
			return err
		}
		bounds = append(bounds, b)
		return nil
	})
	var ratios []ratioSpec
	flag.Func("ratio", "repeatable NUM:DEN:FACTOR — fail unless benchmark NUM runs at ≤ FACTOR × benchmark DEN within this snapshot (exact names, no baseline file)", func(s string) error {
		parts := strings.SplitN(s, ":", 3)
		if len(parts) != 3 {
			return fmt.Errorf("want NUM:DEN:FACTOR, got %q", s)
		}
		factor, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || factor <= 0 {
			return fmt.Errorf("factor %q: want a positive number", parts[2])
		}
		ratios = append(ratios, ratioSpec{num: parts[0], den: parts[1], factor: factor})
		return nil
	})
	flag.Parse()

	var rows map[string]Row
	var err error
	switch flag.NArg() {
	case 0:
		rows, err = parseBenchOutput(os.Stdin)
	case 1:
		rows, err = loadSnapshot(flag.Arg(0))
	default:
		err = fmt.Errorf("at most one input snapshot, got %d args", flag.NArg())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *corpus != "" {
		if err := mergeCorpus(*corpus, rows); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark rows in input")
		os.Exit(1)
	}

	// Deterministic rendering: sorted keys, stable indentation.
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("{\n")
	for i, n := range names {
		enc, err := json.Marshal(rows[n])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Fprintf(&b, "  %q: %s", n, enc)
		if i < len(names)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if _, err := w.WriteString(b.String()); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	exit := 0
	if *diff != "" {
		base, err := loadSnapshot(*diff)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if !compare(base, rows, *tol) {
			exit = 1
		}
	}
	for _, g := range gates {
		base, err := loadSnapshot(g.baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if !gate(g, base, rows) {
			exit = 1
		}
	}
	for _, r := range ratios {
		if !ratio(r, rows) {
			exit = 1
		}
	}
	for _, b := range bounds {
		if !bound(b, rows) {
			exit = 1
		}
	}
	os.Exit(exit)
}

// boundSpec is one parsed -floor/-ceiling flag: the named row must exist
// with its value on the right side of the limit.
type boundSpec struct {
	name  string
	limit float64
	// floor true means value ≥ limit must hold; false means value ≤ limit.
	floor bool
}

func parseBound(s string, floor bool) (boundSpec, error) {
	i := strings.LastIndex(s, ":")
	if i < 1 || i == len(s)-1 {
		return boundSpec{}, fmt.Errorf("want NAME:LIMIT, got %q", s)
	}
	limit, err := strconv.ParseFloat(s[i+1:], 64)
	if err != nil {
		return boundSpec{}, fmt.Errorf("limit %q: %v", s[i+1:], err)
	}
	return boundSpec{name: s[:i], limit: limit, floor: floor}, nil
}

// bound enforces one -floor/-ceiling spec. A missing row fails: a bound
// names a measurement that must exist.
func bound(b boundSpec, cur map[string]Row) bool {
	kind, cmp := "FLOOR", "≥"
	if !b.floor {
		kind, cmp = "CEILING", "≤"
	}
	row, ok := cur[b.name]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "  %s MISSING %s (not measured)\n", kind, b.name)
	case b.floor && row.NsPerOp < b.limit, !b.floor && row.NsPerOp > b.limit:
		fmt.Fprintf(os.Stderr, "  %s FAILED  %s: %.2f violates %s %.2f\n", kind, b.name, row.NsPerOp, cmp, b.limit)
	default:
		fmt.Fprintf(os.Stderr, "  %s ok      %s: %.2f %s %.2f\n", strings.ToLower(kind), b.name, row.NsPerOp, cmp, b.limit)
		return true
	}
	fmt.Fprintf(os.Stderr, "benchjson: %s %s:%.2f failed\n", strings.ToLower(kind), b.name, b.limit)
	return false
}

// mergeCorpus folds a cmd/corpus report into the snapshot as pseudo-rows,
// carrying each value in the ns_per_op slot: per-verdict unit counts, the
// provably-classified percentage, and the differential mismatch count.
func mergeCorpus(path string, rows map[string]Row) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep struct {
		Verdicts     map[string]int `json:"verdicts"`
		Differential struct {
			Mismatch int `json:"mismatch"`
		} `json:"differential"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	total := 0
	for v, n := range rep.Verdicts {
		rows["CorpusVerdicts/"+v] = Row{NsPerOp: float64(n)}
		total += n
	}
	if total > 0 {
		proved := rep.Verdicts["parallel"] + rep.Verdicts["racy"]
		rows["CorpusVerdicts/provablyClassified"] = Row{NsPerOp: 100 * float64(proved) / float64(total)}
	}
	rows["CorpusDifferential/mismatch"] = Row{NsPerOp: float64(rep.Differential.Mismatch)}
	return nil
}

// ratio enforces one -ratio spec against the current snapshot. Either
// benchmark missing fails: a ratio names measurements that must exist.
func ratio(r ratioSpec, cur map[string]Row) bool {
	num, okN := cur[r.num]
	den, okD := cur[r.den]
	switch {
	case !okN || !okD:
		for name, ok := range map[string]bool{r.num: okN, r.den: okD} {
			if !ok {
				fmt.Fprintf(os.Stderr, "  RATIO MISSING %s (not measured)\n", name)
			}
		}
	case den.NsPerOp <= 0:
		fmt.Fprintf(os.Stderr, "  RATIO FAILED  %s: denominator measured at %.0f ns/op\n", r.den, den.NsPerOp)
	case num.NsPerOp > den.NsPerOp*r.factor:
		fmt.Fprintf(os.Stderr, "  RATIO FAILED  %s: %.0f ns/op exceeds %.2fx %s (%.0f ns/op, limit %.0f)\n",
			r.num, num.NsPerOp, r.factor, r.den, den.NsPerOp, den.NsPerOp*r.factor)
	default:
		fmt.Fprintf(os.Stderr, "  ratio ok      %s: %.0f ns/op ≤ %.2fx %s (%.0f ns/op)\n",
			r.num, num.NsPerOp, r.factor, r.den, den.NsPerOp)
		return true
	}
	fmt.Fprintf(os.Stderr, "benchjson: ratio %s:%s:%.2f failed\n", r.num, r.den, r.factor)
	return false
}

// gate enforces one -gate spec: every baseline benchmark matching the
// pattern must be measured at ≤ factor × its baseline ns/op. A matching
// benchmark missing from the current run fails, as does a pattern that
// matches nothing in the baseline (a misspelled gate must not pass
// silently).
func gate(g gateSpec, base, cur map[string]Row) bool {
	names := make([]string, 0, len(base))
	for n := range base {
		if g.pattern.MatchString(n) {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: gate %s: pattern %q matches no baseline benchmark\n",
			g.baseline, g.pattern)
		return false
	}
	sort.Strings(names)
	ok := true
	for _, n := range names {
		b := base[n]
		c, shared := cur[n]
		limit := b.NsPerOp * g.factor
		switch {
		case !shared:
			fmt.Fprintf(os.Stderr, "  GATE MISSING %s (baseline %.0f ns/op, not measured)\n", n, b.NsPerOp)
			ok = false
		case c.NsPerOp > limit:
			fmt.Fprintf(os.Stderr, "  GATE FAILED  %s: %.0f ns/op exceeds %.2fx baseline %.0f (limit %.0f)\n",
				n, c.NsPerOp, g.factor, b.NsPerOp, limit)
			ok = false
		default:
			fmt.Fprintf(os.Stderr, "  gate ok      %s: %.0f ns/op ≤ %.2fx baseline %.0f\n",
				n, c.NsPerOp, g.factor, b.NsPerOp)
		}
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "benchjson: gate against %s failed (factor %.2f)\n", g.baseline, g.factor)
	}
	return ok
}

// parseBenchOutput scans `go test -bench` text, collects every sample per
// benchmark name (GOMAXPROCS suffix stripped) and returns one Row per name
// holding the samples' medians and ns/op range.
func parseBenchOutput(r io.Reader) (map[string]Row, error) {
	samples := map[string][]Row{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iteration count, then "value unit" pairs.
		if len(fields) < 4 {
			continue
		}
		name := cpuSuffix.ReplaceAllString(fields[0], "")
		var row Row
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				row.NsPerOp = v
			case "B/op":
				row.BytesPerOp = v
			case "allocs/op":
				row.AllocsPerOp = v
			}
		}
		samples[name] = append(samples[name], row)
	}
	rows := make(map[string]Row, len(samples))
	for name, ss := range samples {
		pick := func(f func(Row) float64) []float64 {
			vs := make([]float64, len(ss))
			for i, s := range ss {
				vs[i] = f(s)
			}
			sort.Float64s(vs)
			return vs
		}
		ns := pick(func(r Row) float64 { return r.NsPerOp })
		rows[name] = Row{
			NsPerOp:     median(ns),
			BytesPerOp:  median(pick(func(r Row) float64 { return r.BytesPerOp })),
			AllocsPerOp: median(pick(func(r Row) float64 { return r.AllocsPerOp })),
			NsMin:       ns[0],
			NsMax:       ns[len(ns)-1],
		}
	}
	return rows, sc.Err()
}

// median returns the middle of sorted values (the mean of the two middle
// ones for an even count).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// loadSnapshot reads a JSON document previously written by this tool.
func loadSnapshot(path string) (map[string]Row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rows := map[string]Row{}
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return rows, nil
}

// compare reports each benchmark shared between baseline and current on
// stderr and returns false if any regressed by more than tol percent
// ns/op. Benchmarks present in only one snapshot are listed but cannot
// fail the comparison: new benchmarks have no baseline, and retired ones
// have no measurement.
func compare(base, cur map[string]Row, tol float64) bool {
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	ok := true
	for _, n := range names {
		b := base[n]
		c, shared := cur[n]
		if !shared {
			fmt.Fprintf(os.Stderr, "  gone     %s (baseline %.0f ns/op)\n", n, b.NsPerOp)
			continue
		}
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		}
		verdict := "ok"
		if delta > tol {
			verdict = "REGRESSED"
			ok = false
		}
		fmt.Fprintf(os.Stderr, "  %-9s %s: %.0f -> %.0f ns/op (%+.1f%%)\n", verdict, n, b.NsPerOp, c.NsPerOp, delta)
	}
	newNames := make([]string, 0, 4)
	for n := range cur {
		if _, inBase := base[n]; !inBase {
			newNames = append(newNames, n)
		}
	}
	sort.Strings(newNames)
	for _, n := range newNames {
		fmt.Fprintf(os.Stderr, "  new      %s (%.0f ns/op)\n", n, cur[n].NsPerOp)
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "benchjson: ns/op regression beyond %.0f%% tolerance\n", tol)
	}
	return ok
}
