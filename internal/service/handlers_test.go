package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/driver"
)

// The tests in this file call the handlers directly through Handler(),
// without a network: every request path must end in a documented status
// and leave /v1/stats balanced.

// Routes and methods a request of this file can take.
var (
	routes  = []string{"/v1/analyze", "/v1/vet", "/v1/batch", "/v1/stats", "/healthz"}
	methods = []string{http.MethodPost, http.MethodGet, http.MethodPut, http.MethodDelete}
)

// errorCodes is docs/API.md's error table: every envelope code with its
// status.
var errorCodes = map[string]int{
	"bad_format":         http.StatusBadRequest,
	"bad_lang":           http.StatusBadRequest,
	"bad_assume":         http.StatusBadRequest,
	"bad_json":           http.StatusBadRequest,
	"empty_batch":        http.StatusBadRequest,
	"method_not_allowed": http.StatusMethodNotAllowed,
	"body_too_large":     http.StatusRequestEntityTooLarge,
	"batch_too_large":    http.StatusRequestEntityTooLarge,
	"overloaded":         http.StatusTooManyRequests,
	"deadline_in_queue":  http.StatusTooManyRequests,
	"draining":           http.StatusServiceUnavailable,
}

// statuses are the statuses docs/API.md documents.
var statuses = map[int]bool{
	http.StatusOK: true, http.StatusBadRequest: true, http.StatusMethodNotAllowed: true,
	http.StatusRequestEntityTooLarge: true, http.StatusUnprocessableEntity: true,
	http.StatusTooManyRequests: true, http.StatusServiceUnavailable: true,
}

// testMaxBody is the body cap of the servers in this file: big enough for
// a batch of more than maxBatchPrograms empty programs, small enough for a
// test to exceed.
const testMaxBody = 64 << 10

// handlerCase is one request and what it must produce: its status, its
// envelope code ("" for an analysis answer), and the /v1/stats outcome it
// is counted under.
type handlerCase struct {
	name, method, route, query, body string
	status                           int
	code, outcome                    string
}

// goodSource is a program the front end accepts.
const goodSource = "do i = 1, 8\n  A[i+1] := A[i] + 1\nenddo\n"

// handlerCases covers every path that ends without an analysis, next to
// one that completes.
var handlerCases = []handlerCase{
	{"vet bad format", "POST", "/v1/vet", "format=xml", goodSource, 400, "bad_format", "bad_request"},
	{"vet bad lang", "POST", "/v1/vet", "lang=rust", goodSource, 400, "bad_lang", "bad_request"},
	{"vet bad assume", "POST", "/v1/vet", "assume=bogus", goodSource, 400, "bad_assume", "bad_request"},
	{"batch bad json", "POST", "/v1/batch", "", "not json", 400, "bad_json", "bad_request"},
	{"batch empty", "POST", "/v1/batch", "", `{"programs":[]}`, 400, "empty_batch", "bad_request"},
	{"batch too large", "POST", "/v1/batch", "",
		`{"programs":[{}` + strings.Repeat(`,{}`, maxBatchPrograms) + `]}`, 413, "batch_too_large", "oversize"},
	{"analyze wrong method", "GET", "/v1/analyze", "", "", 405, "method_not_allowed", "bad_request"},
	{"vet wrong method", "PUT", "/v1/vet", "", goodSource, 405, "method_not_allowed", "bad_request"},
	{"analyze body too large", "POST", "/v1/analyze", "", strings.Repeat(" ", testMaxBody+1), 413, "body_too_large", "oversize"},
	{"analyze", "POST", "/v1/analyze", "name=x", goodSource, 200, "", "completed"},
	{"analyze rejected source", "POST", "/v1/analyze", "", "do i = 1,\nenddo\n", 422, "", "completed"},
	{"vet", "POST", "/v1/vet", "format=sarif", goodSource, 200, "", "completed"},
	{"batch", "POST", "/v1/batch", "", `{"programs":[{"name":"a","src":"do i = 1, 8\n  A[i] := 0\nenddo\n"}]}`, 200, "", "completed"},
}

// outcomes returns where /v1/stats files the analyze, vet and batch
// arrivals: completed, or rejected by cause.
func outcomes(st *Stats) map[string]int64 {
	return map[string]int64{
		"completed":   st.Completed,
		"overload":    st.Rejected.Overload,
		"deadline":    st.Rejected.Deadline,
		"oversize":    st.Rejected.Oversize,
		"draining":    st.Rejected.Draining,
		"bad_request": st.Rejected.BadRequest,
	}
}

// stats reads /v1/stats through h and fails unless it balances: nothing in
// flight or queued, and every analyze, vet and batch arrival either
// completed or rejected for one cause.
func stats(t *testing.T, h http.Handler) *Stats {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	st := &Stats{}
	if err := json.Unmarshal(rec.Body.Bytes(), st); err != nil {
		t.Fatalf("/v1/stats: %v", err)
	}
	arrivals := st.Requests.Analyze + st.Requests.Vet + st.Requests.Batch
	var settled int64
	for _, n := range outcomes(st) {
		settled += n
	}
	if arrivals != settled || st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("/v1/stats does not balance: %d arrivals, outcomes %v, %d in flight, %d queued",
			arrivals, outcomes(st), st.InFlight, st.Queued)
	}
	return st
}

// serve sends one request to h and returns the recorded response.
func serve(h http.Handler, method, route, query string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, route, bytes.NewReader(body))
	req.URL.RawQuery = query
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// checkResponse fails unless rec carries a documented status and, on an
// error other than 422, the JSON envelope with a code of that status. It
// returns the envelope's code ("" when there is none).
func checkResponse(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	if !statuses[rec.Code] {
		t.Fatalf("undocumented status %d: %q", rec.Code, rec.Body.String())
	}
	if rec.Code < 400 || rec.Code == http.StatusUnprocessableEntity {
		return ""
	}
	var env errorEnvelope
	dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		t.Fatalf("status %d: body is not the error envelope: %v", rec.Code, err)
	}
	if status, ok := errorCodes[env.Error]; !ok || status != rec.Code {
		t.Fatalf("status %d with code %q, which the error table does not pair", rec.Code, env.Error)
	}
	return env.Error
}

// goneWriter is the response of a client that left: the handler may set
// headers, and every body write fails.
type goneWriter struct{ header http.Header }

func (g *goneWriter) Header() http.Header       { return g.header }
func (g *goneWriter) WriteHeader(int)           {}
func (g *goneWriter) Write([]byte) (int, error) { return 0, errors.New("client went away") }

// TestStatsBalanceOnEveryPath sends each handler case and a batch whose
// client leaves mid-stream: each request must get its status and code and
// be counted exactly once, under its outcome, so /v1/stats balances after
// every request.
func TestStatsBalanceOnEveryPath(t *testing.T) {
	srv, _ := newTestServer(t, &Options{MaxBody: testMaxBody})
	h := srv.Handler()
	before := outcomes(stats(t, h))
	counted := func(name, outcome string) {
		t.Helper()
		after := outcomes(stats(t, h))
		for k, n := range after {
			want := before[k]
			if k == outcome {
				want++
			}
			if n != want {
				t.Errorf("%s: %s went %d → %d, want %d", name, k, before[k], n, want)
			}
		}
		before = after
	}
	for _, tc := range handlerCases {
		rec := serve(h, tc.method, tc.route, tc.query, []byte(tc.body))
		if code := checkResponse(t, rec); rec.Code != tc.status || code != tc.code {
			t.Errorf("%s: status %d %q, want %d %q", tc.name, rec.Code, code, tc.status, tc.code)
		}
		counted(tc.name, tc.outcome)
	}

	// A client that leaves mid-stream still had its batch analyzed, and
	// its second program, which fails the front end, is counted.
	fails, frontEnd := stats(t, h).BatchProgramFails, stats(t, h).FrontEndErrors
	req := httptest.NewRequest(http.MethodPost, "/v1/batch",
		strings.NewReader(`{"programs":[{"name":"a","src":"do i = 1, 8\n  A[i] := 0\nenddo\n"},{"name":"b","src":"x"}]}`))
	h.ServeHTTP(&goneWriter{header: http.Header{}}, req)
	counted("batch client gone", "completed")
	if st := stats(t, h); st.BatchProgramFails != fails+1 || st.FrontEndErrors != frontEnd+1 {
		t.Errorf("batch client gone: batch_program_fails %d → %d and front_end_errors %d → %d, want +1 each",
			fails, st.BatchProgramFails, frontEnd, st.FrontEndErrors)
	}
}

// FuzzHandlers serves arbitrary requests (a route, a method, a raw query
// and a body) through Handler() under a small body cap: every response
// must carry a status docs/API.md lists, every error other than 422 must
// be the JSON envelope with a code the error table pairs with its status,
// and /v1/stats must balance after every request.
func FuzzHandlers(f *testing.F) {
	index := func(list []string, s string) uint8 {
		for i, v := range list {
			if v == s {
				return uint8(i)
			}
		}
		panic(s)
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.loop"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example programs found: %v", err)
	}
	sort.Strings(paths)
	var batch BatchRequest
	for i, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		name := filepath.Base(p)
		batch.Programs = append(batch.Programs, BatchProgram{Name: name, Src: string(src)})
		f.Add(uint8(0), uint8(0), "name="+name, src)
		f.Add(uint8(1), uint8(0), fmt.Sprintf("name=%s&format=%s", name, vetFormats[i%len(vetFormats)]), src)
	}
	body, err := json.Marshal(batch)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(2), uint8(0), "", body)
	for _, tc := range handlerCases {
		f.Add(index(routes, tc.route), index(methods, tc.method), tc.query, []byte(tc.body))
	}

	driver.ResetCache()
	h := New(&Options{MaxBody: 4 << 10}).Handler()
	f.Fuzz(func(t *testing.T, route, method uint8, query string, body []byte) {
		rec := serve(h, methods[int(method)%len(methods)], routes[int(route)%len(routes)], query, body)
		checkResponse(t, rec)
		stats(t, h)
	})
}
