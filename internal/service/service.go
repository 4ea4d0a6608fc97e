// Package service exposes the arrayflow analysis pipeline as a long-lived
// HTTP/JSON daemon — the process boundary around the shared interner,
// memo cache, and pooled solver arenas that the batch API proved out. It
// is what `arrayflow serve` runs.
//
// The API surface is four endpoints under /v1 (see docs/API.md for the
// full wire reference):
//
//	POST /v1/analyze  whole-program analysis; the body is mini-language
//	                  source, the response the exact report bytes the
//	                  `arrayflow -program` CLI prints
//	POST /v1/vet      static analysis; the response is the exact renderer
//	                  output of `arrayflow vet` in text, json, or sarif
//	                  format, with the 0/1/2 exit contract mapped onto the
//	                  X-Arrayflow-Exit header and the HTTP status
//	POST /v1/batch    many named programs in one request, streamed back as
//	                  NDJSON in input order
//	GET  /v1/stats    a JSON snapshot of request, admission, latency, and
//	                  cache counters (never queued — it must work during
//	                  overload)
//
// Overload posture: at most Options.Workers requests execute at once, at
// most Options.MaxQueue wait, and everything beyond that — or anything
// whose Options.Deadline expires while waiting — is refused with 429 and a
// Retry-After estimate. Oversized bodies are refused with 413 before any
// parsing. Adversarial inputs therefore degrade to bounded-latency
// refusals, never unbounded solves. Responses are byte-identical to the
// corresponding CLI output at every worker/cache setting; identical
// loops across concurrent requests coalesce in the driver's singleflight
// memo cache, so a hot loop body is solved once no matter how many
// clients send it.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/goimport"
	"repro/internal/lint"
	"repro/internal/rangefacts"
	"repro/internal/sema"
)

// Options configures a Server. The zero value is usable: GOMAXPROCS
// workers, a 256-deep queue, a 10-second deadline, a 1 MiB body cap, and
// the process-global memo cache enabled.
type Options struct {
	// Workers caps the number of requests analyzed concurrently
	// (0 = GOMAXPROCS). Each admitted request runs the driver serially;
	// parallelism comes from concurrent requests, exactly like the batch
	// CLI's program-level fan-out.
	Workers int
	// MaxQueue caps the number of requests waiting for a worker slot
	// (0 = 256; negative = no waiting, refuse unless a slot is free).
	// Arrivals beyond Workers+MaxQueue are refused with 429.
	MaxQueue int
	// Deadline bounds each request's total time in the server, queueing
	// included (0 = 10s). A request whose deadline expires before its
	// solve starts is refused with 429; it is never started late.
	Deadline time.Duration
	// MaxBody caps the request body in bytes (0 = 1 MiB). Larger bodies
	// are refused with 413 before parsing.
	MaxBody int64
	// CacheCap forwards to driver.Options.CacheCap on the first request
	// that uses the cache: positive sets the process-global memo bound,
	// negative removes it, 0 keeps the default.
	CacheCap int
	// DisableCache bypasses the memo cache entirely.
	DisableCache bool
	// CacheDir points the driver at a persistent solve cache directory
	// (see driver.Options.CacheDir). With it set, a restarted daemon
	// answers previously seen loops from disk at memo-hit speed instead of
	// re-solving them cold; /v1/stats reports the disk traffic. "" keeps
	// the cache memory-only. Ignored under DisableCache.
	CacheDir string
	// Fuel bounds every per-loop solve (0 = derived default, see
	// dataflow.Options.Fuel). It complements Deadline: the deadline refuses
	// work that cannot start in time, while fuel caps how much solver work
	// an admitted request can consume — an exhausted solve degrades to
	// claim-nothing facts (unknown verdicts) instead of holding a worker
	// past the deadline. Exhaustions are counted in /v1/stats.
	Fuel int64
}

// withDefaults resolves the zero values documented on Options.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case o.MaxQueue == 0:
		o.MaxQueue = 256
	case o.MaxQueue < 0:
		o.MaxQueue = 0
	}
	if o.Deadline <= 0 {
		o.Deadline = 10 * time.Second
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 1 << 20
	}
	return o
}

// Server is the analysis daemon: a stateless handler bundle over the
// process-global driver state (memo cache, interner, solver pools)
// plus the admission gate and request counters. Create one with New and
// mount Handler on an http.Server; Servers are safe for concurrent use.
type Server struct {
	opts     Options
	gate     *gate
	counters counters
	latency  histogram
	draining atomic.Bool
	start    time.Time
}

// New returns a Server with opts resolved to their documented defaults
// (nil = all defaults). A non-zero CacheCap is applied to the
// process-global memo cache immediately.
func New(opts *Options) *Server {
	o := Options{}
	if opts != nil {
		o = *opts
	}
	o = o.withDefaults()
	driver.SetCacheCap(o.CacheCap)
	return &Server{opts: o, gate: newGate(o.Workers, o.MaxQueue), start: time.Now()}
}

// Handler returns the http.Handler serving the /v1 API plus /healthz.
// It can be mounted under any mux or wrapped with middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	mux.HandleFunc("/v1/vet", s.handleVet)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

// SetDraining flips the server into (or out of) drain mode: every analysis
// endpoint refuses new work with 503 + Connection: close while requests
// already admitted run to completion. `arrayflow serve` sets it on
// SIGTERM/SIGINT right before http.Server.Shutdown, so keep-alive
// connections that race the listener close still get a fast, clean refusal
// instead of hanging.
func (s *Server) SetDraining(on bool) { s.draining.Store(on) }

// Draining reports whether the server is refusing new work.
func (s *Server) Draining() bool { return s.draining.Load() }

// errorEnvelope is the JSON body of every transport-level error response
// (400, 404, 405, 413, 429, 503). Analysis-level failures (front-end
// errors) instead return the CLI-equivalent body with status 422 — see
// docs/API.md.
type errorEnvelope struct {
	// Error is a stable machine-readable code; Message is human-readable.
	Error   string `json:"error"`
	Message string `json:"message"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// writeError emits the JSON error envelope with the given status.
func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter int) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(errorEnvelope{Error: code, Message: msg, RetryAfterSeconds: retryAfter})
}

// retryAfter estimates how long a refused client should back off: the
// current queue drained at the observed median latency across the worker
// pool, clamped to [1s, 30s]. With no latency samples yet it returns 1.
func (s *Server) retryAfter() int {
	p50 := s.latency.quantile(0.50) // ms
	if p50 <= 0 {
		return 1
	}
	queued := float64(s.gate.queued.Load() + 1)
	est := math.Ceil(p50 * queued / float64(s.opts.Workers) / 1000.0)
	if est < 1 {
		return 1
	}
	if est > 30 {
		return 30
	}
	return int(est)
}

// admit runs the shared request preamble: drain check, method check, and
// admission through the gate under the per-request deadline. On success it
// returns a release function; otherwise it has already written the
// response and returns nil.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) func() {
	if s.draining.Load() {
		s.counters.rejectedDraining.Add(1)
		w.Header().Set("Connection", "close")
		writeError(w, http.StatusServiceUnavailable, "draining",
			"server is draining; retry against another instance", 1)
		return nil
	}
	if r.Method != http.MethodPost {
		s.counters.rejectedBadRequest.Add(1)
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			"use POST with the program source as the request body", 0)
		return nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Deadline)
	release, err := s.gate.acquire(ctx)
	if err != nil {
		cancel()
		ra := s.retryAfter()
		switch {
		case errors.Is(err, errOverload):
			s.counters.rejectedOverload.Add(1)
			writeError(w, http.StatusTooManyRequests, "overloaded",
				fmt.Sprintf("queue full (%d waiting, %d executing); retry later",
					s.gate.queued.Load(), s.gate.inFlight.Load()), ra)
		default:
			s.counters.rejectedDeadline.Add(1)
			writeError(w, http.StatusTooManyRequests, "deadline_in_queue",
				fmt.Sprintf("deadline (%s) expired before a worker slot freed", s.opts.Deadline), ra)
		}
		return nil
	}
	// Never start a solve the deadline has already disowned: a slot won in
	// the same scheduler tick the deadline fired is released unused.
	if ctx.Err() != nil {
		release()
		cancel()
		s.counters.rejectedDeadline.Add(1)
		writeError(w, http.StatusTooManyRequests, "deadline_in_queue",
			fmt.Sprintf("deadline (%s) expired before the solve started", s.opts.Deadline), s.retryAfter())
		return nil
	}
	return func() { release(); cancel() }
}

// badRequest refuses a malformed request with 400 and counts the refusal.
func (s *Server) badRequest(w http.ResponseWriter, code, msg string) {
	s.counters.rejectedBadRequest.Add(1)
	writeError(w, http.StatusBadRequest, code, msg, 0)
}

// readBody reads the request body under the MaxBody cap, refusing larger
// bodies with 413. It returns ok=false after writing the response.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (string, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBody))
	if err != nil {
		s.counters.rejectedOversize.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds the %d-byte cap", s.opts.MaxBody), 0)
		return "", false
	}
	return string(body), true
}

// driverOptions builds the per-request driver options: serial within the
// request (concurrency comes from the request fan-out), shared cache per
// server configuration. The cache cap was applied once by New.
func (s *Server) driverOptions(vectors bool) *driver.Options {
	return &driver.Options{
		NestVectors:  vectors,
		Parallelism:  1,
		DisableCache: s.opts.DisableCache,
		CacheDir:     s.opts.CacheDir,
		Fuel:         s.opts.Fuel,
	}
}

// handleAnalyze implements POST /v1/analyze: the request body is
// mini-language source; the 200 response body is byte-identical to what
// `arrayflow -program <file>` prints for the same source. Front-end
// failures return 422 with the CLI's positioned error lines. Query
// parameters: vectors (default true) toggles the §6 extension; name
// (default "<request>") is the display name in error positions.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.counters.analyze.Add(1)
	done := s.admit(w, r)
	if done == nil {
		return
	}
	defer done()
	t0 := time.Now()
	src, ok := s.readBody(w, r)
	if !ok {
		return
	}
	name := queryName(r)
	vectors := queryBool(r, "vectors", true)

	body, failed := "", true
	if prog, fail := sema.Load([]byte(src), nil); fail != nil {
		body = strings.Join(fail.Lines(name), "\n") + "\n"
	} else if pa, err := driver.Analyze(prog, s.driverOptions(vectors)); err != nil {
		body = name + ": analyze: " + err.Error() + "\n"
	} else {
		body, failed = pa.Report(), false
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if failed {
		// A front-end failure is an answer, as on /v1/vet: it counts as
		// completed.
		s.counters.frontEndErrors.Add(1)
		w.Header().Set(exitHeader, "2")
		w.WriteHeader(http.StatusUnprocessableEntity)
	} else {
		w.Header().Set(exitHeader, "0")
	}
	io.WriteString(w, body)
	s.counters.completed.Add(1)
	s.latency.observe(time.Since(t0))
}

// exitHeader carries the CLI exit-contract value (0, 1, or 2) on analyze
// and vet responses, so HTTP clients recover the exact status a CLI run
// would have exited with.
const exitHeader = "X-Arrayflow-Exit"

// handleVet implements POST /v1/vet: the request body is source; the
// response body is byte-identical to the stdout of
// `arrayflow vet -lang <lang> -format <format> <file>` for the same
// source. Query parameters: lang (loop|go, default loop — go treats the
// body as a single Go source file and lowers it through the goimport
// front end first), format (text|json|sarif, default text), werror
// (default false), name (display name used in findings, default
// "<request>"). Status: 200 for exit 0 and 1 (X-Arrayflow-Exit
// distinguishes), 422 for exit 2 (front-end failure; the body still
// carries the findings exactly as the CLI prints them).
func (s *Server) handleVet(w http.ResponseWriter, r *http.Request) {
	s.counters.vet.Add(1)
	done := s.admit(w, r)
	if done == nil {
		return
	}
	defer done()
	t0 := time.Now()
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "text"
	}
	if format != "text" && format != "json" && format != "sarif" {
		s.badRequest(w, "bad_format",
			fmt.Sprintf("unknown format %q (want text, json, or sarif)", format))
		return
	}
	lang := r.URL.Query().Get("lang")
	if lang == "" {
		lang = "loop"
	}
	if lang != "loop" && lang != "go" {
		s.badRequest(w, "bad_lang", fmt.Sprintf("unknown lang %q (want loop or go)", lang))
		return
	}
	src, ok := s.readBody(w, r)
	if !ok {
		return
	}
	name := queryName(r)
	// Repeatable assume parameters inject range-fact assumptions into the
	// analysis (the static side only — dynamically certified verdicts are
	// still probed with unconstrained inputs, and a probe falsifying the
	// assumption reports a bridge-failure error finding).
	var assume []rangefacts.Fact
	for _, a := range r.URL.Query()["assume"] {
		facts, err := rangefacts.ParseAssumption(a)
		if err != nil {
			s.badRequest(w, "bad_assume", err.Error())
			return
		}
		assume = append(assume, facts...)
	}
	opts := &lint.Options{
		Parallelism:  1,
		DisableCache: s.opts.DisableCache,
		CacheDir:     s.opts.CacheDir,
		Fuel:         s.opts.Fuel,
		Werror:       queryBool(r, "werror", false),
		Assume:       assume,
	}
	var res *lint.VetResult
	rules := lint.RuleMetas
	if lang == "go" {
		res = goimport.VetSource(name, []byte(src), opts)
		rules = goimport.RuleMetas
	} else {
		res = lint.Vet(name, src, opts)
	}
	exit := res.ExitCode()
	if res.FrontEndFailed {
		s.counters.frontEndErrors.Add(1)
	}

	switch format {
	case "json", "sarif":
		w.Header().Set("Content-Type", "application/json")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.Header().Set(exitHeader, strconv.Itoa(exit))
	if exit == 2 {
		w.WriteHeader(http.StatusUnprocessableEntity)
	}
	// Each writer renders into one buffer and hands it to the response in
	// a single Write. Rendering cannot fail; a failed write means the
	// client is gone, and there is no one left to tell.
	switch format {
	case "json":
		diag.WriteJSON(w, name, res.Findings)
	case "sarif":
		diag.WriteSARIF(w, name, rules(), res.Findings)
	default:
		diag.WriteText(w, name, res.Findings)
	}
	s.counters.completed.Add(1)
	s.latency.observe(time.Since(t0))
}

// handleHealth implements GET /healthz: 200 "ok" while serving, 503 while
// draining. It never queues.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// Stats is the /v1/stats response document. Every counter is lifetime
// (since process start) unless labeled a gauge. docs/OPERATIONS.md has the
// field-by-field glossary.
type Stats struct {
	// UptimeSeconds is the time since the Server was created.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Draining reports drain mode (SIGTERM received, refusing new work).
	Draining bool `json:"draining"`

	// Workers, MaxQueue, DeadlineMS, and MaxBodyBytes echo the resolved
	// configuration, so operators can read limits off a live process.
	Workers      int   `json:"workers"`
	MaxQueue     int   `json:"max_queue"`
	DeadlineMS   int64 `json:"deadline_ms"`
	MaxBodyBytes int64 `json:"max_body_bytes"`
	// Fuel echoes the configured per-solve budget (0 = derived default).
	Fuel int64 `json:"fuel"`

	// Requests counts arrivals per endpoint, refusals included.
	Requests struct {
		Analyze int64 `json:"analyze"`
		Vet     int64 `json:"vet"`
		Batch   int64 `json:"batch"`
		Stats   int64 `json:"stats"`
	} `json:"requests"`
	// Completed counts requests that produced an analysis response
	// (front-end failures included — the analysis ran — and batches whose
	// client left mid-stream).
	Completed int64 `json:"completed"`
	// Rejected breaks refusals down by cause: queue overflow (429),
	// deadline expiry in queue (429), oversized body or batch (413), drain
	// mode (503), and malformed requests (400, and 405 for a wrong
	// method). Every analyze, vet and batch arrival is either completed or
	// rejected for exactly one cause.
	Rejected struct {
		Overload   int64 `json:"overload"`
		Deadline   int64 `json:"deadline"`
		Oversize   int64 `json:"oversize"`
		Draining   int64 `json:"draining"`
		BadRequest int64 `json:"bad_request"`
	} `json:"rejected"`
	// FrontEndErrors counts requests whose source failed to parse, check,
	// or normalize (HTTP 422 on analyze/vet; per-program on batch, counted
	// once analysis returns, whether or not the client stays for it).
	FrontEndErrors int64 `json:"front_end_errors"`
	// FuelExhaustedSolves is the process-lifetime count of solves that ran
	// out of fuel and degraded to claim-nothing facts (cache hits on a
	// degraded solve are not re-counted). A nonzero value under the default
	// budget means a pathological input got through; under an explicit
	// -fuel it measures how often the guardrail fires.
	FuelExhaustedSolves int64 `json:"fuel_exhausted_solves"`
	// BatchPrograms / BatchProgramFails count individual programs inside
	// /v1/batch requests, and how many of those failed (front end or
	// analysis), counted before the response streams.
	BatchPrograms     int64 `json:"batch_programs"`
	BatchProgramFails int64 `json:"batch_program_fails"`

	// InFlight and Queued are gauges: requests currently executing and
	// currently waiting for a slot.
	InFlight int64 `json:"in_flight"`
	Queued   int64 `json:"queued"`

	// LatencyMS summarizes completed-request latency from a log2
	// histogram; quantiles are bucket upper bounds (within 2× exact).
	LatencyMS struct {
		Count int64   `json:"count"`
		P50   float64 `json:"p50"`
		P90   float64 `json:"p90"`
		P99   float64 `json:"p99"`
	} `json:"latency_ms"`

	// Cache snapshots the process-global memo cache. Hits count coalesced
	// work: a hit is a solve some earlier — possibly concurrent — request
	// already paid for. Bytes is what the resident solves hold, as charged
	// against the memo's fixed byte budget.
	Cache struct {
		Entries int64 `json:"entries"`
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Bytes   int64 `json:"bytes"`
	} `json:"cache"`

	// DiskCache snapshots the persistent cache counters (all zero unless
	// the server runs with Options.CacheDir). DiskHits count memory misses
	// answered from disk — after a warm restart they are the solves the
	// previous process paid for; DiskErrors the entries that existed but
	// were unusable (each degraded to a cold solve).
	DiskCache struct {
		Dir        string `json:"dir,omitempty"`
		Hits       int64  `json:"disk_hits"`
		Misses     int64  `json:"disk_misses"`
		Stores     int64  `json:"disk_stores"`
		Errors     int64  `json:"disk_errors"`
		LoadNS     int64  `json:"disk_load_ns"`
		StoreNS    int64  `json:"disk_store_ns"`
		LoadBytes  int64  `json:"disk_load_bytes"`
		StoreBytes int64  `json:"disk_store_bytes"`
	} `json:"disk_cache"`
}

// handleStats implements GET /v1/stats. It bypasses admission entirely so
// it keeps answering during overload — it is the endpoint you debug
// overload with.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.counters.stats.Add(1)
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET", 0)
		return
	}
	st := Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.draining.Load(),
		Workers:       s.opts.Workers,
		MaxQueue:      s.opts.MaxQueue,
		DeadlineMS:    s.opts.Deadline.Milliseconds(),
		MaxBodyBytes:  s.opts.MaxBody,
		Fuel:          s.opts.Fuel,

		Completed:           s.counters.completed.Load(),
		FrontEndErrors:      s.counters.frontEndErrors.Load(),
		FuelExhaustedSolves: dataflow.FuelExhaustedTotal(),
		BatchPrograms:       s.counters.batchPrograms.Load(),
		BatchProgramFails:   s.counters.batchProgramFails.Load(),
		InFlight:            s.gate.inFlight.Load(),
		Queued:              s.gate.queued.Load(),
	}
	st.Requests.Analyze = s.counters.analyze.Load()
	st.Requests.Vet = s.counters.vet.Load()
	st.Requests.Batch = s.counters.batch.Load()
	st.Requests.Stats = s.counters.stats.Load()
	st.Rejected.Overload = s.counters.rejectedOverload.Load()
	st.Rejected.Deadline = s.counters.rejectedDeadline.Load()
	st.Rejected.Oversize = s.counters.rejectedOversize.Load()
	st.Rejected.Draining = s.counters.rejectedDraining.Load()
	st.Rejected.BadRequest = s.counters.rejectedBadRequest.Load()
	st.LatencyMS.Count = s.latency.total.Load()
	st.LatencyMS.P50 = s.latency.quantile(0.50)
	st.LatencyMS.P90 = s.latency.quantile(0.90)
	st.LatencyMS.P99 = s.latency.quantile(0.99)
	entries, hits, misses := driver.CacheStats()
	st.Cache.Entries = int64(entries)
	st.Cache.Hits = int64(hits)
	st.Cache.Misses = int64(misses)
	st.Cache.Bytes = driver.CacheBytes()
	ds := driver.DiskCacheStats()
	st.DiskCache.Dir = s.opts.CacheDir
	st.DiskCache.Hits = ds.Hits
	st.DiskCache.Misses = ds.Misses
	st.DiskCache.Stores = ds.Stores
	st.DiskCache.Errors = ds.Errors
	st.DiskCache.LoadNS = ds.LoadNS
	st.DiskCache.StoreNS = ds.StoreNS
	st.DiskCache.LoadBytes = ds.LoadBytes
	st.DiskCache.StoreBytes = ds.StoreBytes

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

// queryName returns the display name for diagnostics ("name" query
// parameter, default "<request>").
func queryName(r *http.Request) string {
	if n := r.URL.Query().Get("name"); n != "" {
		return n
	}
	return "<request>"
}

// queryBool parses a boolean query parameter with a default for absence.
func queryBool(r *http.Request, key string, def bool) bool {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return def
	}
	return b
}
