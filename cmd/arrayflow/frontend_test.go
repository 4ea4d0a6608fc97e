package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/lint"
	"repro/internal/service"
)

// TestFrontEndErrorsMatchService pins the front end's failure output on
// every surface that reports it: the CLI's stderr lines, the /v1/analyze
// 422 body, the /v1/batch "errors" lines, and vet's parse/sema findings
// all carry the same positioned errors, every one of them.
func TestFrontEndErrorsMatchService(t *testing.T) {
	cases := []struct {
		label, src, stage, analyzer string
		want                        string // CLI stderr
	}{
		{
			label: "parse, many errors", stage: "parse", analyzer: "parse",
			src: "do i = 1,\n  A[i] := @\nenddo\nB[ := 3\n",
			want: `x.loop:2:11: parse: illegal character '@'
x.loop:1:10: parse: expected expression, found NEWLINE
x.loop:2:3: parse: expected NEWLINE, found IDENT("A")
x.loop:2:11: parse: expected expression, found ILLEGAL("@")
x.loop:4:4: parse: expected expression, found :=
x.loop:4:7: parse: expected ], found INT("3")
x.loop:4:7: parse: expected :=, found INT("3")
`,
		},
		{
			label: "check, many errors", stage: "check", analyzer: "sema",
			src: "dim A[10]\ndo i = 1, 10\n  i := 1\n  A[i, 2] := A[i]\nenddo\n",
			want: `x.loop:3:3: check: assignment to induction variable i inside its loop
x.loop:4:3: check: A used with 2 subscripts, previously 1
`,
		},
		{
			// Check refuses this bound before Normalize would.
			label: "lower bound reads its own variable", stage: "check", analyzer: "sema",
			src:  "do j = j, N, -1\n  A[j] := 0\nenddo\n",
			want: "x.loop:1:8: check: loop lower bound reads its own induction variable j\n",
		},
		{
			label: "normalize", stage: "normalize", analyzer: "sema",
			src:  "do i = 1, 10, k\n  A[i] := 0\nenddo\n",
			want: "x.loop:1:1: normalize: loop step \"k\" must be a nonzero integer constant\n",
		},
	}
	ts := httptest.NewServer(service.New(nil).Handler())
	defer ts.Close()
	c := service.NewClient(ts.URL)
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			cli := stderrOf(t, func() {
				if load("x.loop", []byte(tc.src), nil) != nil {
					t.Error("the front end accepted a failing source")
				}
			})
			if cli != tc.want {
				t.Fatalf("CLI stderr:\n%s\nwant:\n%s", cli, tc.want)
			}

			_, err := c.Analyze(ctx, "x.loop", tc.src)
			var se *service.StatusError
			if !errors.As(err, &se) || se.Status != http.StatusUnprocessableEntity {
				t.Fatalf("/v1/analyze: %v (want 422)", err)
			}
			if se.Body != cli {
				t.Errorf("/v1/analyze 422 body:\n%s\nCLI stderr:\n%s", se.Body, cli)
			}

			items, err := c.Batch(ctx, &service.BatchRequest{Programs: []service.BatchProgram{{Name: "x.loop", Src: tc.src}}})
			if err != nil {
				t.Fatal(err)
			}
			if len(items) != 1 {
				t.Fatalf("/v1/batch: %d items, want 1", len(items))
			}
			if got := strings.Join(items[0].Errors, "\n") + "\n"; got != cli {
				t.Errorf("/v1/batch errors:\n%s\nCLI stderr:\n%s", got, cli)
			}

			// vet reports the same errors as findings, sorted by position.
			res := lint.Vet("x.loop", tc.src, nil)
			if res.ExitCode() != 2 {
				t.Errorf("vet exit %d, want 2", res.ExitCode())
			}
			var text strings.Builder
			if err := diag.WriteText(&text, "x.loop", res.Findings); err != nil {
				t.Fatal(err)
			}
			got := strings.Split(strings.TrimSuffix(text.String(), "\n"), "\n")
			want := strings.Split(strings.TrimSuffix(cli, "\n"), "\n")
			for i, l := range want {
				want[i] = strings.Replace(l, ": "+tc.stage+": ", ": error: "+tc.analyzer+": ", 1)
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("vet findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

// stderrOf returns what f writes to os.Stderr.
func stderrOf(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	f()
	os.Stderr = saved
	w.Close()
	out, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
