package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/goimport"
	"repro/internal/lint"
	"repro/internal/sema"
	"repro/internal/synth"
)

// exampleSources loads every examples/*.loop file plus a few synthetic
// multi-loop programs, keyed by display name: the corpus the service tests
// replay.
func exampleSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.loop"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(b)
	}
	for i := 0; i < 3; i++ {
		prog := synth.MultiLoopProgram(synth.MultiParams{
			Seed: int64(200 + i), Loops: 4, StmtsPer: 3, UB: 32,
		})
		srcs[fmt.Sprintf("synth-%d", i)] = ast.ProgramString(prog)
	}
	return srcs
}

// renderVet renders findings as `arrayflow vet -format format` prints them.
func renderVet(t *testing.T, format, name string, rules []diag.RuleMeta, fs []diag.Finding) string {
	t.Helper()
	var b strings.Builder
	var err error
	switch format {
	case "json":
		err = diag.WriteJSON(&b, name, fs)
	case "sarif":
		err = diag.WriteSARIF(&b, name, rules, fs)
	default:
		err = diag.WriteText(&b, name, fs)
	}
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func newTestServer(t *testing.T, opts *Options) (*Server, *httptest.Server) {
	t.Helper()
	driver.ResetCache()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		driver.ResetCache()
	})
	return srv, ts
}

// TestAnalyzeMatchesCLIRender asserts the /v1/analyze body is byte-identical
// to the report the CLI path produces for the same source: the exact
// sema.Load → driver.Analyze → Report() pipeline cmd/arrayflow runs.
func TestAnalyzeMatchesCLIRender(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := NewClient(ts.URL)
	for name, src := range exampleSources(t) {
		got, err := c.Analyze(context.Background(), name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog, fail := sema.Load([]byte(src), nil)
		if fail != nil {
			t.Fatalf("%s: unexpected front-end failure: %v", name, fail.Lines(name))
		}
		pa, err := driver.Analyze(prog, &driver.Options{NestVectors: true, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want := pa.Report(); got != want {
			t.Errorf("%s: HTTP body diverges from CLI report\nHTTP:\n%s\nCLI:\n%s", name, got, want)
		}
	}
}

// TestVetMatchesCLIRender asserts the /v1/vet body is byte-identical to the
// stdout of `arrayflow vet -format <f>` for every format, and that the
// X-Arrayflow-Exit header carries the CLI exit value.
func TestVetMatchesCLIRender(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := NewClient(ts.URL)
	for name, src := range exampleSources(t) {
		for _, format := range []string{"text", "json", "sarif"} {
			vr, err := c.Vet(context.Background(), name, src, format, false)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, format, err)
			}
			res := lint.Vet(name, src, &lint.Options{Parallelism: 1})
			if want := renderVet(t, format, name, lint.RuleMetas(), res.Findings); vr.Body != want {
				t.Errorf("%s/%s: HTTP body diverges from CLI render\nHTTP:\n%s\nCLI:\n%s",
					name, format, vr.Body, want)
			}
			if vr.Exit != res.ExitCode() {
				t.Errorf("%s/%s: exit header %d, CLI exit %d", name, format, vr.Exit, res.ExitCode())
			}
		}
	}
}

// TestVetAssume pins the wire plumbing of the assume parameter: a valid
// assumption reaches the analyzer and flips the symbolic-distance verdict
// off unknown (the adversarial dynamic bridge still probes unconstrained
// inputs, so the parallel claim is accompanied by a loud bridge-failure
// error, never silently trusted), and a malformed assumption is refused
// with 400 before analysis.
func TestVetAssume(t *testing.T) {
	_, ts := newTestServer(t, nil)
	src := "dim X[100]\ndo i = 1, 20\n  X[i] := X[i+k] + 1\nenddo\n"

	post := func(url string) (int, string) {
		resp, err := http.Post(url, "text/plain", strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	_, plain := post(ts.URL + "/v1/vet?name=sym")
	if !strings.Contains(plain, "unknown") || !strings.Contains(plain, "collision distance") {
		t.Fatalf("baseline vet lost the why-certificate:\n%s", plain)
	}

	_, assumed := post(ts.URL + "/v1/vet?name=sym&assume=" + url.QueryEscape("k >= 20"))
	if !strings.Contains(assumed, "provably parallel") {
		t.Fatalf("assume=k>=20 did not reach the analyzer:\n%s", assumed)
	}
	if !strings.Contains(assumed, "certification bridge failure") {
		t.Fatalf("assumption-dependent verdict was not dynamically probed:\n%s", assumed)
	}

	status, body := post(ts.URL + "/v1/vet?name=sym&assume=" + url.QueryEscape("k != 0"))
	if status != http.StatusBadRequest || !strings.Contains(body, "bad_assume") {
		t.Fatalf("malformed assume: status %d body %q (want 400 bad_assume)", status, body)
	}
}

// TestHTTPDeterminism replays the full corpus 50× against servers configured
// with every worker/cache combination and demands byte-identical
// responses throughout — the CLI determinism guarantee extended across the
// HTTP boundary.
func TestHTTPDeterminism(t *testing.T) {
	srcs := exampleSources(t)
	type config struct {
		label string
		opts  Options
	}
	configs := []config{
		{"w1-cache", Options{Workers: 1}},
		{"w4-cache", Options{Workers: 4}},
		{"w4-nocache", Options{Workers: 4, DisableCache: true}},
	}
	const runs = 50

	// Reference bodies come from the first configuration; every other
	// configuration and every later run must reproduce them byte for byte.
	want := map[string]string{}
	for _, cfg := range configs {
		_, ts := newTestServer(t, &cfg.opts)
		c := NewClient(ts.URL)
		for run := 0; run < runs; run++ {
			for name, src := range srcs {
				got, err := c.Analyze(context.Background(), name, src)
				if err != nil {
					t.Fatalf("%s run %d %s: %v", cfg.label, run, name, err)
				}
				if w, ok := want[name]; !ok {
					want[name] = got
				} else if got != w {
					t.Fatalf("%s run %d: %s response diverged", cfg.label, run, name)
				}
			}
		}
		ts.Close()
	}
}

// TestVetExitMapping pins the HTTP mapping of the CLI 0/1/2 exit contract:
// clean source → 200/exit 0, findings → 200/exit 1, front-end failure →
// 422/exit 2 with the findings body intact.
func TestVetExitMapping(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := NewClient(ts.URL)

	clean := "do i = 1, 100\n  A[i] := B[i] + 1\nenddo\n"
	vr, err := c.Vet(context.Background(), "clean", clean, "text", false)
	if err != nil || vr.Exit != 0 {
		t.Fatalf("clean: exit %d err %v (want 0, nil)", vr.Exit, err)
	}

	findings, err := os.ReadFile(filepath.Join("..", "..", "examples", "fig1.loop"))
	if err != nil {
		t.Fatal(err)
	}
	vr, err = c.Vet(context.Background(), "fig1", string(findings), "text", false)
	if err != nil || vr.Exit != 1 {
		t.Fatalf("findings: exit %d err %v (want 1, nil)", vr.Exit, err)
	}
	if vr.Body == "" {
		t.Fatal("findings: empty body for exit-1 vet")
	}

	vr, err = c.Vet(context.Background(), "bad", "for i = { garbage", "text", false)
	var se *StatusError
	if vr == nil || vr.Exit != 2 {
		t.Fatalf("front-end failure: got %+v (want exit 2)", vr)
	}
	if !errorsAs(err, &se) || se.Status != http.StatusUnprocessableEntity {
		t.Fatalf("front-end failure: err %v (want 422 StatusError)", err)
	}

	// The same front-end failure on /v1/analyze yields 422 with the CLI's
	// positioned error lines.
	_, err = c.Analyze(context.Background(), "bad", "for i = { garbage")
	if !errorsAs(err, &se) || se.Status != http.StatusUnprocessableEntity {
		t.Fatalf("analyze front-end failure: err %v (want 422)", err)
	}
	if !strings.Contains(se.Body, "bad:") || !strings.Contains(se.Body, "parse:") {
		t.Fatalf("analyze 422 body missing positioned error lines: %q", se.Body)
	}
}

func errorsAs(err error, target **StatusError) bool {
	se, ok := err.(*StatusError)
	if ok {
		*target = se
	}
	return ok
}

// TestAdmissionOverload fills every worker slot and the whole queue by hand,
// then asserts the next arrival is refused with 429 + Retry-After instead of
// waiting unboundedly.
func TestAdmissionOverload(t *testing.T) {
	srv, ts := newTestServer(t, &Options{Workers: 1, MaxQueue: -1})
	// Occupy the single worker slot directly through the gate.
	release, err := srv.gate.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	c := NewClient(ts.URL)
	_, err = c.Analyze(context.Background(), "x", "do i = 1, 8\n  A[i] := 1\nenddo\n")
	var se *StatusError
	if !errorsAs(err, &se) {
		t.Fatalf("want StatusError, got %v", err)
	}
	if se.Status != http.StatusTooManyRequests || se.Code != "overloaded" {
		t.Fatalf("want 429 overloaded, got %d %q", se.Status, se.Code)
	}
	if se.RetryAfter < 1 {
		t.Fatalf("429 without usable Retry-After: %d", se.RetryAfter)
	}
}

// TestAdmissionDeadlineInQueue parks a request in the queue behind a stuck
// worker and asserts the deadline refuses it with 429 before any solve runs.
func TestAdmissionDeadlineInQueue(t *testing.T) {
	srv, ts := newTestServer(t, &Options{Workers: 1, MaxQueue: 8, Deadline: 50 * time.Millisecond})
	release, err := srv.gate.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	c := NewClient(ts.URL)
	t0 := time.Now()
	_, err = c.Analyze(context.Background(), "x", "do i = 1, 8\n  A[i] := 1\nenddo\n")
	var se *StatusError
	if !errorsAs(err, &se) || se.Status != http.StatusTooManyRequests || se.Code != "deadline_in_queue" {
		t.Fatalf("want 429 deadline_in_queue, got %v", err)
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("deadline refusal took %s; refusals must be bounded", elapsed)
	}
	if n := srv.counters.rejectedDeadline.Load(); n != 1 {
		t.Fatalf("rejectedDeadline = %d, want 1", n)
	}
}

// TestOversizeBody asserts bodies beyond MaxBody are refused with 413 before
// parsing.
func TestOversizeBody(t *testing.T) {
	_, ts := newTestServer(t, &Options{MaxBody: 64})
	c := NewClient(ts.URL)
	_, err := c.Analyze(context.Background(), "big", strings.Repeat("x", 1024))
	var se *StatusError
	if !errorsAs(err, &se) || se.Status != http.StatusRequestEntityTooLarge || se.Code != "body_too_large" {
		t.Fatalf("want 413 body_too_large, got %v", err)
	}
}

// TestDraining asserts drain mode refuses analysis with 503 + Connection:
// close and flips /healthz, while /v1/stats keeps answering.
func TestDraining(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	srv.SetDraining(true)

	resp, err := http.Post(ts.URL+"/v1/analyze", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining analyze: status %d, want 503", resp.StatusCode)
	}
	// net/http surfaces the handler's Connection: close as resp.Close.
	if !resp.Close && resp.Header.Get("Connection") != "close" {
		t.Fatal("draining 503 must close the connection")
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", hresp.StatusCode)
	}

	st, err := NewClient(ts.URL).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Draining {
		t.Fatal("stats must report draining=true")
	}
}

// TestMethodNotAllowed asserts GET on analysis endpoints returns 405 with an
// Allow header.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, ep := range []string{"/v1/analyze", "/v1/vet", "/v1/batch"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s GET: status %d, want 405", ep, resp.StatusCode)
		}
		if resp.Header.Get("Allow") != http.MethodPost {
			t.Fatalf("%s GET: Allow %q, want POST", ep, resp.Header.Get("Allow"))
		}
	}
}

// readAll drains and closes a response body.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestVetGoLang posts a Go source file with lang=go and asserts the body
// is byte-identical to the CLI's `vet -lang go` render, that the findings
// cite the request's display name (a real .go path) with real line
// numbers, and that the exit header carries the front-end exit contract.
func TestVetGoLang(t *testing.T) {
	_, ts := newTestServer(t, nil)
	goSrc := `package k

func Recurrence(a, b []int, n int) {
	for i := 1; i < n; i++ {
		a[i] = a[i-1] + b[i]
	}
}
`
	for _, format := range []string{"text", "json", "sarif"} {
		resp, err := http.Post(ts.URL+"/v1/vet?lang=go&format="+format+"&name=k.go",
			"text/plain", strings.NewReader(goSrc))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", format, resp.StatusCode, body)
		}
		res := goimport.VetSource("k.go", []byte(goSrc), &lint.Options{Parallelism: 1})
		if want := renderVet(t, format, "k.go", goimport.RuleMetas(), res.Findings); body != want {
			t.Errorf("%s: HTTP body diverges from CLI render\nHTTP:\n%s\nCLI:\n%s", format, body, want)
		}
		if got := resp.Header.Get(exitHeader); got != fmt.Sprint(res.ExitCode()) {
			t.Errorf("%s: exit header %q, CLI exit %d", format, got, res.ExitCode())
		}
	}
	// The findings must anchor at the Go source: the flow dependence in
	// Recurrence sits on the assignment at line 5 of the posted file.
	resp, err := http.Post(ts.URL+"/v1/vet?lang=go&name=k.go", "text/plain", strings.NewReader(goSrc))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if !strings.Contains(body, "k.go:4:") && !strings.Contains(body, "k.go:5:") {
		t.Errorf("text findings do not cite the Go file:line:\n%s", body)
	}

	// A body that is not Go source is a front-end failure: 422 + exit 2.
	resp, err = http.Post(ts.URL+"/v1/vet?lang=go&name=bad.go", "text/plain", strings.NewReader("do i = 1, 10\nenddo\n"))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity || resp.Header.Get(exitHeader) != "2" {
		t.Errorf("non-Go body: status %d exit %q, want 422 exit 2", resp.StatusCode, resp.Header.Get(exitHeader))
	}
}

// TestBadVetLang asserts an unknown lang is a 400 with the stable code.
func TestBadVetLang(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Post(ts.URL+"/v1/vet?lang=fortran", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Error != "bad_lang" {
		t.Fatalf("want 400 bad_lang, got %d %q", resp.StatusCode, env.Error)
	}
}

// TestBadVetFormat asserts an unknown format is a 400 with the stable code.
func TestBadVetFormat(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Post(ts.URL+"/v1/vet?format=yaml", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Error != "bad_format" {
		t.Fatalf("want 400 bad_format, got %d %q", resp.StatusCode, env.Error)
	}
}

// TestBatchNDJSON posts a batch mixing good and broken programs and checks
// the NDJSON stream: input order preserved, reports byte-identical to
// /v1/analyze for the same source, Errors populated only for the bad one.
func TestBatchNDJSON(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := NewClient(ts.URL)

	good1 := "do i = 1, 8\n  A[i] := A[i] + 1\nenddo\n"
	good2 := "do j = 1, 16\n  B[j] := B[j+1]\nenddo\n"
	items, err := c.Batch(context.Background(), &BatchRequest{
		Vectors: true,
		Programs: []BatchProgram{
			{Name: "one", Src: good1},
			{Name: "broken", Src: "for { nope"},
			{Name: "two", Src: good2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("got %d items, want 3", len(items))
	}
	for i, wantName := range []string{"one", "broken", "two"} {
		if items[i].Name != wantName {
			t.Fatalf("item %d: name %q, want %q (input order must hold)", i, items[i].Name, wantName)
		}
	}
	if len(items[1].Errors) == 0 || items[1].Report != "" {
		t.Fatalf("broken item: %+v (want Errors only)", items[1])
	}
	for _, i := range []int{0, 2} {
		if items[i].Errors != nil || items[i].Report == "" {
			t.Fatalf("good item %d: %+v (want Report only)", i, items[i])
		}
	}

	// Batch reports must match the single-program endpoint byte for byte.
	single, err := c.Analyze(context.Background(), "one", good1)
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Report != single {
		t.Fatalf("batch report diverges from /v1/analyze:\nbatch:\n%s\nsingle:\n%s", items[0].Report, single)
	}

	// Transport-level batch errors: empty batch and bad JSON are 400s.
	if _, err := c.Batch(context.Background(), &BatchRequest{}); err == nil {
		t.Fatal("empty batch must fail")
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON batch: status %d, want 400", resp.StatusCode)
	}
}

// TestStatsCounters drives a few requests and checks the snapshot adds up:
// arrivals, completions, and a latency count matching completions.
func TestStatsCounters(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := NewClient(ts.URL)
	src := "do i = 1, 8\n  A[i] := A[i] + 1\nenddo\n"
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := c.Analyze(context.Background(), "x", src); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Vet(context.Background(), "x", src, "text", false); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests.Analyze != n || st.Requests.Vet != 1 {
		t.Fatalf("arrivals: analyze %d vet %d, want %d and 1", st.Requests.Analyze, st.Requests.Vet, n)
	}
	if st.Completed != n+1 {
		t.Fatalf("completed %d, want %d", st.Completed, n+1)
	}
	if st.LatencyMS.Count != n+1 {
		t.Fatalf("latency count %d, want %d", st.LatencyMS.Count, n+1)
	}
	if st.Workers <= 0 || st.DeadlineMS <= 0 {
		t.Fatalf("config echo missing: %+v", st)
	}
	// The snapshot names only what exists: there is one solver, so no
	// engine key, and one memo table, so no shard breakdown.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["engine"]; ok {
		t.Errorf("/v1/stats still reports an engine key: %v", raw["engine"])
	}
	if cache, _ := raw["cache"].(map[string]any); len(cache) != 4 {
		t.Errorf("/v1/stats cache = %v, want entries, hits, misses and bytes only", raw["cache"])
	}
}

// TestCoalescingAcrossRequests sends the same program from many concurrent
// clients and asserts the memo cache paid for each distinct loop solve only
// once — the singleflight coalescing contract at the HTTP layer.
func TestCoalescingAcrossRequests(t *testing.T) {
	_, ts := newTestServer(t, &Options{Workers: 8})
	c := NewClient(ts.URL)
	src := "do i = 1, 8\n  A[i] := A[i] + 1\nenddo\ndo j = 1, 8\n  B[j] := B[j] * 2\nenddo\n"

	const clients = 16
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			_, err := c.Analyze(context.Background(), "hot", src)
			errc <- err
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Misses > st.Cache.Entries || st.Cache.Hits == 0 {
		t.Fatalf("coalescing broken: %d misses for %d cached solves (%d hits)",
			st.Cache.Misses, st.Cache.Entries, st.Cache.Hits)
	}
}

// TestFuelBudgetDegradesWithinDeadline exercises the fuel/deadline
// interaction end to end: a server with a one-unit fuel budget must answer
// vet requests for a multi-loop program well inside its deadline, report
// every loop's parallelism as unknown with the exhausted budget named,
// surface the exhaustion count through /v1/stats, and stay byte-identical
// across repeats — the memo key folds the budget in, so a cached degraded
// solve replays exactly.
func TestFuelBudgetDegradesWithinDeadline(t *testing.T) {
	deadline := 5 * time.Second
	_, ts := newTestServer(t, &Options{Fuel: 1, Deadline: deadline, Workers: 2})
	c := NewClient(ts.URL)
	src := ast.ProgramString(synth.MultiLoopProgram(synth.MultiParams{
		Seed: 7, Loops: 6, StmtsPer: 8, UB: 64}))

	before, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		vr, err := c.Vet(context.Background(), "fuel", src, "text", false)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if elapsed := time.Since(t0); elapsed >= deadline {
			t.Fatalf("rep %d: degraded vet took %s, breaching the %s deadline", rep, elapsed, deadline)
		}
		if vr.Exit == 2 {
			t.Fatalf("rep %d: exhaustion must degrade, not fail the analysis:\n%s", rep, vr.Body)
		}
		if !strings.Contains(vr.Body, "fuel budget (1) was exhausted") {
			t.Fatalf("rep %d: findings do not name the exhausted budget:\n%s", rep, vr.Body)
		}
		if !strings.Contains(vr.Body, "is unknown:") {
			t.Fatalf("rep %d: no unknown parallelism verdict:\n%s", rep, vr.Body)
		}
		if rep == 0 {
			first = vr.Body
		} else if vr.Body != first {
			t.Fatalf("rep %d: degraded output is not deterministic", rep)
		}
	}
	after, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if after.Fuel != 1 {
		t.Errorf("stats echo fuel = %d, want 1", after.Fuel)
	}
	if after.FuelExhaustedSolves <= before.FuelExhaustedSolves {
		t.Errorf("fuel_exhausted_solves did not grow: before %d, after %d",
			before.FuelExhaustedSolves, after.FuelExhaustedSolves)
	}
}
