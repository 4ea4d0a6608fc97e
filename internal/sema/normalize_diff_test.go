package sema

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// reusesIV reports whether some loop of prog reuses an enclosing loop's
// induction variable. Check rejects such nests, and on them Normalize,
// which resolves a lower bound's names at its loop's header, differs from
// the oracle's capture by design.
func reusesIV(prog *ast.Program) bool {
	_, errs := CheckAll(prog)
	for _, err := range errs {
		if strings.Contains(err.Error(), "reuses enclosing induction variable") {
			return true
		}
	}
	return false
}

// agreeWithOracle normalizes prog both ways and reports the first
// difference: trees, error texts, a changed input, or a node or slice the
// output shares with the input.
func agreeWithOracle(prog *ast.Program) error {
	snapshot := ast.CloneStmts(prog.Body)
	got, gotErr := Normalize(prog)
	want, wantErr := oracleNormalize(prog)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Errorf("error = %v, oracle %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(prog.Body, snapshot) {
		return fmt.Errorf("Normalize changed its input")
	}
	if gotErr != nil {
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("tree differs from the oracle:\n%s\noracle:\n%s", ast.ProgramString(got), ast.ProgramString(want))
	}
	in := sharedParts(prog.Body)
	for p := range sharedParts(got.Body) {
		if in[p] {
			return fmt.Errorf("output shares %T %p with the input", p, p)
		}
	}
	return nil
}

// sharedParts collects every node of a statement list and the backing
// array of every non-empty list, subscript list and size list in it.
func sharedParts(body []ast.Stmt) map[any]bool {
	seen := map[any]bool{}
	list := func(l []ast.Stmt) {
		if len(l) > 0 {
			seen[&l[0]] = true
		}
	}
	list(body)
	ast.Inspect(body, func(n ast.Node) bool {
		seen[n] = true
		switch x := n.(type) {
		case *ast.DoLoop:
			list(x.Body)
		case *ast.If:
			list(x.Then)
			list(x.Else)
		case *ast.ArrayRef:
			if len(x.Subs) > 0 {
				seen[&x.Subs[0]] = true
			}
		case *ast.Dim:
			if len(x.Sizes) > 0 {
				seen[&x.Sizes[0]] = true
			}
		}
		return true
	})
	return seen
}

// checkSource parses src and compares Normalize with the oracle on it.
// Inputs that do not parse, or that reuse an induction variable, are
// skipped; the result says whether src was compared.
func checkSource(t *testing.T, name, src string) bool {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil || reusesIV(prog) {
		return false
	}
	if err := agreeWithOracle(prog); err != nil {
		t.Fatalf("%s: %v\nsource:\n%s", name, err, src)
	}
	return true
}

// normalizeSeeds are loop shapes that exercise normalization: strided,
// negative, symbolic and outer-dependent bounds, nests, conditionals,
// declarations and subscripts that are not polynomials.
var normalizeSeeds = []string{
	"do i = 2, 1, 2\n A[i] := 0\nenddo",
	"do i = 0, 9, 3\n A[i + 1] := A[2 * i - 1] + i\nenddo",
	"do i = 10, 1, -1\n A[i] := A[i - 1]\nenddo",
	"do i = N, M, 2\n if i > 3 then A[i] := 0 else B[i % 2] := i endif\nenddo",
	"do i = 1, N, 2\n do j = i, N, 3\n  A[i, j] := A[j, i] + B[A[i + 0]]\n enddo\nenddo",
	"do i = 3, 10\n do j = i + 1, 12, -2\n  do k = j, i\n   C[i + j - k] := C[(2 * k) / 2]\n  enddo\n enddo\nenddo",
	"dim A[10]\ndo i = 0, 5\n dim B[i + 1]\n A[i * i] := B[i / 2] + A[-i]\nenddo",
	"do i = 2, N\n x := i\n A[x] := A[i] * i\n if A[i] == 0 then\n  A[i] := 1\n endif\nenddo",
	"do i = j, 10, 2\n do j = 0, 4\n  A[i] := A[j]\n enddo\nenddo",
	"do i = 1, 10, s\n A[i] := 0\nenddo",
	"do i = 1, 10, 0\n A[i] := 0\nenddo",
	"do i = 2, 8\n do j = 1, 4, 0\n  A[j] := 0\n enddo\nenddo",
	"do i = -3, 3\n A[i - 2 * 2 + 0 * j] := A[0 - i]\nenddo",
	"do i = 1 - 1, A[2 + 0]\n A[B[i]] := A[i] + B[A[i + 1] + 0]\nenddo",
	"do i = 1, 4\n do j = 2, i\n  A[j] := A[i]\n enddo\nenddo",
	"do j = j, N, -1\n A[j] := 0\nenddo",
	"do j = j, N\n A[j] := 0\nenddo",
	"do i = 1, N, 2\n A[0] := i\nenddo\ndo i = 2 * i - 1, N, 3\n do j = A[j + i], i\n  A[j] := 0\n enddo\nenddo",
}

// normalizeSources lists the seed programs: FuzzParse's seeds, the
// examples, and normalizeSeeds.
func normalizeSources(tb testing.TB) []string {
	b, err := os.ReadFile(filepath.Join("..", "parser", "testdata", "seeds.txt"))
	if err != nil {
		tb.Fatalf("reading parser seeds: %v", err)
	}
	var out []string
	for n, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		s, err := strconv.Unquote(line)
		if err != nil {
			tb.Fatalf("parser seeds:%d: %v", n+1, err)
		}
		out = append(out, s)
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.loop"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no example programs: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, string(b))
	}
	return append(out, normalizeSeeds...)
}

// TestNormalizeMatchesOracleOnRandomNests sweeps seeded random nests
// through Normalize and the oracle.
func TestNormalizeMatchesOracleOnRandomNests(t *testing.T) {
	n := 3000
	if testing.Short() {
		n = 300
	}
	r := rand.New(rand.NewSource(1))
	compared := 0
	for i := 0; i < n; i++ {
		src := randomNest(r)
		if checkSource(t, fmt.Sprintf("nest %d", i), src) {
			compared++
		}
	}
	if compared < n/2 {
		t.Fatalf("only %d of %d generated nests were compared", compared, n)
	}
}

// randomNest writes a nest of up to three loops whose lower bounds,
// steps and subscripts cover what normalization and canonicalization
// rewrite: outer variables in bounds, negative and unit steps, if/else,
// declarations, '%', division and array references inside subscripts.
// Loop variables are drawn from {i, j, k}, so some nests reuse one.
func randomNest(r *rand.Rand) string {
	var b strings.Builder
	var loop func(depth int, ivs []string)
	pick := func(xs ...string) string { return xs[r.Intn(len(xs))] }
	atom := func(ivs []string) string {
		if len(ivs) > 0 && r.Intn(3) > 0 {
			return ivs[r.Intn(len(ivs))]
		}
		return pick("0", "1", "2", "3", "N", "j")
	}
	var sub func(ivs []string, depth int) string
	sub = func(ivs []string, depth int) string {
		a := atom(ivs)
		switch r.Intn(9) {
		case 0:
			return a
		case 1:
			return fmt.Sprintf("%d * %s + %d", r.Intn(5)-2, a, r.Intn(7)-3)
		case 2:
			return fmt.Sprintf("%s - %s", a, atom(ivs))
		case 3:
			return fmt.Sprintf("%s %% %d", a, r.Intn(3)+1)
		case 4:
			if depth < 2 {
				return fmt.Sprintf("B[%s]", sub(ivs, depth+1))
			}
			return a
		case 5:
			return fmt.Sprintf("(2 * %s) / 2", a)
		case 6:
			return fmt.Sprintf("-%s + 1", a)
		case 7:
			return fmt.Sprintf("%s * %s", a, atom(ivs))
		}
		return fmt.Sprintf("%s + %d", a, r.Intn(5)-2)
	}
	stmt := func(ivs []string, indent string) {
		switch r.Intn(6) {
		case 0:
			fmt.Fprintf(&b, "%sif %s > %s then\n%s  A[%s] := %s\n", indent, atom(ivs), atom(ivs), indent, sub(ivs, 0), sub(ivs, 0))
			if r.Intn(2) == 0 {
				fmt.Fprintf(&b, "%selse\n%s  C[%s, %s] := A[%s]\n", indent, indent, sub(ivs, 0), sub(ivs, 0), sub(ivs, 0))
			}
			fmt.Fprintf(&b, "%sendif\n", indent)
		case 1:
			fmt.Fprintf(&b, "%sdim D[%s]\n", indent, pick("10", "N", "4 + 4", "i"))
		case 2:
			fmt.Fprintf(&b, "%sx := %s + A[%s]\n", indent, atom(ivs), sub(ivs, 0))
		default:
			fmt.Fprintf(&b, "%sA[%s] := A[%s] + %s\n", indent, sub(ivs, 0), sub(ivs, 0), atom(ivs))
		}
	}
	loop = func(depth int, ivs []string) {
		indent := strings.Repeat(" ", depth)
		iv := pick("i", "j", "k")
		lo := pick("-3", "0", "1", "2", "j", "N", "i + 1")
		if len(ivs) > 0 && r.Intn(3) == 0 {
			lo = ivs[r.Intn(len(ivs))]
		}
		hi := pick("10", "N", "1", "-2", atom(ivs))
		fmt.Fprintf(&b, "%sdo %s = %s, %s", indent, iv, lo, hi)
		if s := pick("", "1", "2", "3", "-1"); s != "" {
			fmt.Fprintf(&b, ", %s", s)
		}
		b.WriteString("\n")
		inner := append(append([]string(nil), ivs...), iv)
		for n := r.Intn(3) + 1; n > 0; n-- {
			if depth < 2 && r.Intn(3) == 0 {
				loop(depth+1, inner)
			} else {
				stmt(inner, indent+" ")
			}
		}
		fmt.Fprintf(&b, "%senddo\n", indent)
	}
	for n := r.Intn(2) + 1; n > 0; n-- {
		if r.Intn(4) == 0 {
			stmt(nil, "")
		}
		loop(0, nil)
	}
	return b.String()
}

// TestCanonicalizeMatchesOracle compares CanonicalizeSubscripts with the
// oracle's clone-then-rewrite on the same sources, un-normalized.
func TestCanonicalizeMatchesOracle(t *testing.T) {
	srcs := normalizeSources(t)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		srcs = append(srcs, randomNest(r))
	}
	for i, src := range srcs {
		prog, err := parser.Parse(src)
		if err != nil {
			continue
		}
		got, want := CanonicalizeSubscripts(prog), oracleCanonicalize(prog)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("source %d: canonical form differs from the oracle:\n%s\noracle:\n%s\nsource:\n%s",
				i, ast.ProgramString(got), ast.ProgramString(want), src)
		}
	}
}

// TestNormalizeReusedIV pins Normalize on nests that reuse an induction
// variable, which Check rejects and the oracle comparison skips. An inner
// loop's variable shadows the outer binding of the same name; and a
// replacement resolves the names in its loop's lower bound at that loop's
// header, where the oracle's sequential substitution let a shadowing inner
// loop capture them.
func TestNormalizeReusedIV(t *testing.T) {
	cases := []struct{ src, want, oracle string }{
		{
			src:    "do i = 2, 10\n do i = 1, 5\n  A[i] := 0\n enddo\nenddo",
			want:   "A[i] := 0",
			oracle: "A[i] := 0",
		},
		{
			src:    "do i = 0, 9\n do j = i, 20, 2\n  do i = 1, 3\n   A[j] := 0\n  enddo\n enddo\nenddo",
			want:   "A[i + 2 * j - 3] := 0",
			oracle: "A[i + 2 * j - 2] := 0",
		},
	}
	for _, tc := range cases {
		prog := parser.MustParse(tc.src)
		for _, side := range []struct {
			name string
			norm func(*ast.Program) (*ast.Program, error)
			want string
		}{{"Normalize", Normalize, tc.want}, {"oracle", oracleNormalize, tc.oracle}} {
			norm, err := side.norm(prog)
			if err != nil {
				t.Fatal(err)
			}
			if got := ast.ProgramString(norm); !strings.Contains(got, side.want) {
				t.Errorf("%s of\n%s\n= %s\nwant it to contain %q", side.name, tc.src, got, side.want)
			}
		}
	}
}
