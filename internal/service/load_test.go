package service

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/lint"
	"repro/internal/sema"
)

// The tests in this file put an in-process server under concurrent load,
// across a dropped memo, and through a drain, driving it with Client the
// way a caller of the service does.

var vetFormats = []string{"text", "json", "sarif"}

// reference is a program's memo-free in-process render: the bytes every
// served answer for it must equal.
type reference struct {
	// analyze is the /v1/analyze body: the report, or the positioned
	// error lines of a 422 when rejected is set.
	analyze  string
	rejected bool
	vet      map[string]string // by format
	vetExit  int
}

// badSources are programs the front end rejects, one per failing stage.
var badSources = map[string]string{
	"bad-parse.loop":     "do i = 1,\nenddo\n",
	"bad-check.loop":     "do j = j, N, -1\n  A[j] := 0\nenddo\n",
	"bad-normalize.loop": "do i = 1, 10, k\n  A[i] := 0\nenddo\n",
}

// references renders every program of srcs without the memo cache.
func references(t *testing.T, srcs map[string]string) map[string]*reference {
	t.Helper()
	refs := map[string]*reference{}
	for name, src := range srcs {
		res := lint.Vet(name, src, &lint.Options{Parallelism: 1, DisableCache: true})
		ref := &reference{vet: map[string]string{}, vetExit: res.ExitCode()}
		if prog, fail := sema.Load([]byte(src), nil); fail != nil {
			ref.analyze, ref.rejected = strings.Join(fail.Lines(name), "\n")+"\n", true
		} else {
			pa, err := driver.Analyze(prog, &driver.Options{NestVectors: true, Parallelism: 1, DisableCache: true})
			if err != nil {
				t.Fatal(err)
			}
			ref.analyze = pa.Report()
		}
		for _, format := range vetFormats {
			ref.vet[format] = renderVet(t, format, name, lint.RuleMetas(), res.Findings)
		}
		refs[name] = ref
	}
	return refs
}

// sortedNames returns the keys of srcs in order.
func sortedNames(srcs map[string]string) []string {
	names := make([]string, 0, len(srcs))
	for n := range srcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestMixedLoad releases 64 clients at once on a server with two workers
// and a short queue. Each sends a seeded mix of analyze, vet (text, JSON
// and SARIF) and batch requests over the example corpus, plus sources the
// front end rejects in the analyze and vet traffic, and retries a refusal
// after a scaled-down Retry-After. Every final answer must equal the
// memo-free render byte for byte (a 422 with the error lines or findings
// for a rejected source), every refusal must be a prompt 429 envelope with
// a usable Retry-After, and nothing else may arrive. After the run
// /v1/stats must balance: nothing in flight or queued, and every arrival
// either completed or was refused.
func TestMixedLoad(t *testing.T) {
	srcs := exampleSources(t)
	good := sortedNames(srcs)
	for name, src := range badSources {
		srcs[name] = src
	}
	names := sortedNames(srcs)
	refs := references(t, srcs)
	const (
		clients   = 64
		perClient = 3
		deadline  = 20 * time.Second
	)
	_, ts := newTestServer(t, &Options{Workers: 2, MaxQueue: 8, Deadline: deadline})

	ctx := context.Background()
	var refused atomic.Int64
	barrier := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(ts.URL)
			rng := rand.New(rand.NewSource(int64(w) + 1))
			<-barrier
			for i := 0; i < perClient; i++ {
				send := mixedRequest(ctx, c, rng, names, good, srcs, refs)
				for {
					t0 := time.Now()
					err := send()
					var se *StatusError
					if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
						if err != nil {
							t.Errorf("client %d: %v", w, err)
							return
						}
						break
					}
					refused.Add(1)
					if se.Code != "overloaded" && se.Code != "deadline_in_queue" {
						t.Errorf("client %d: 429 with code %q", w, se.Code)
						return
					}
					if se.RetryAfter < 1 {
						t.Errorf("client %d: 429 %s without a usable Retry-After", w, se.Code)
						return
					}
					if elapsed := time.Since(t0); elapsed > deadline/4 {
						t.Errorf("client %d: refusal took %s against a %s deadline", w, elapsed, deadline)
						return
					}
					time.Sleep(time.Duration(se.RetryAfter) * 20 * time.Millisecond)
				}
			}
		}(w)
	}
	close(barrier)
	wg.Wait()
	if t.Failed() {
		return
	}
	t.Logf("%d answers, %d refusals", clients*perClient, refused.Load())
	if refused.Load() == 0 {
		t.Error("64 clients against 2 workers and a queue of 8 saw no 429")
	}

	st, err := NewClient(ts.URL).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("after the run: in_flight %d, queued %d (want 0, 0)", st.InFlight, st.Queued)
	}
	arrivals := st.Requests.Analyze + st.Requests.Vet + st.Requests.Batch
	rejected := st.Rejected.Overload + st.Rejected.Deadline + st.Rejected.Oversize + st.Rejected.Draining + st.Rejected.BadRequest
	if st.Completed != clients*perClient || rejected != refused.Load() || arrivals != st.Completed+rejected {
		t.Errorf("stats do not balance: %d arrivals, %d completed, %d rejected; clients saw %d answers and %d refusals",
			arrivals, st.Completed, rejected, clients*perClient, refused.Load())
	}
}

// mixedRequest draws one request of the mix and returns a function that
// sends it: nil means a final answer equal to its reference, a 429
// *StatusError a refusal, and any other error a failure. Analyze and vet
// requests draw from names, batches from good, the sources the front end
// accepts.
func mixedRequest(ctx context.Context, c *Client, rng *rand.Rand, names, good []string, srcs map[string]string, refs map[string]*reference) func() error {
	name := names[rng.Intn(len(names))]
	ref := refs[name]
	switch kind := rng.Intn(5); kind {
	case 0:
		return func() error {
			got, err := c.Analyze(ctx, name, srcs[name])
			var se *StatusError
			if ref.rejected && errors.As(err, &se) && se.Status == http.StatusUnprocessableEntity {
				got, err = se.Body, nil
			}
			if err == nil && got != ref.analyze {
				return errors.New("/v1/analyze " + name + ": body differs from the memo-free report")
			}
			return err
		}
	case 1, 2, 3:
		format := vetFormats[kind-1]
		return func() error {
			vr, err := c.Vet(ctx, name, srcs[name], format, false)
			var se *StatusError
			if errors.As(err, &se) && se.Status == http.StatusUnprocessableEntity {
				err = nil // exit 2: the body still carries the findings
			}
			if err == nil && (vr.Body != ref.vet[format] || vr.Exit != ref.vetExit) {
				return errors.New("/v1/vet " + name + " " + format + ": body or exit header differs from the memo-free render")
			}
			return err
		}
	}
	req := &BatchRequest{Vectors: true}
	for n := 2 + rng.Intn(3); n > 0; n-- {
		p := good[rng.Intn(len(good))]
		req.Programs = append(req.Programs, BatchProgram{Name: p, Src: srcs[p]})
	}
	return func() error {
		items, err := c.Batch(ctx, req)
		if err != nil {
			return err
		}
		if len(items) != len(req.Programs) {
			return errors.New("/v1/batch: wrong item count")
		}
		for i, it := range items {
			if p := req.Programs[i].Name; it.Name != p || it.Errors != nil || it.Report != refs[p].analyze {
				return errors.New("/v1/batch item " + p + ": differs from the memo-free report")
			}
		}
		return nil
	}
}

// TestWarmRestart answers a pass of analyze and vet requests from a
// server with a persistent cache, drops the in-memory memo as a restarted
// process starts without one, and replays the pass. The replay must be
// answered from disk, without disk errors, in the cold pass's bytes.
func TestWarmRestart(t *testing.T) {
	driver.ResetDiskCacheStats()
	_, ts := newTestServer(t, &Options{CacheDir: t.TempDir()})
	c := NewClient(ts.URL)
	ctx := context.Background()
	srcs := exampleSources(t)
	pass := func() map[string]string {
		bodies := map[string]string{}
		for name, src := range srcs {
			report, err := c.Analyze(ctx, name, src)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			bodies[name+" analyze"] = report
			vr, err := c.Vet(ctx, name, src, "text", false)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			bodies[name+" vet"] = vr.Body + "exit " + strconv.Itoa(vr.Exit)
		}
		return bodies
	}
	stats := func() *Stats {
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	cold := pass()
	before := stats()
	driver.ResetCache()
	warm := pass()
	after := stats()

	if after.DiskCache.Hits <= before.DiskCache.Hits {
		t.Errorf("the replay never hit the persistent cache: disk_hits %d -> %d",
			before.DiskCache.Hits, after.DiskCache.Hits)
	}
	if after.DiskCache.Errors != 0 {
		t.Errorf("disk_errors = %d, want 0", after.DiskCache.Errors)
	}
	for key, body := range cold {
		if warm[key] != body {
			t.Errorf("%s: the disk-warm answer differs from the cold one", key)
		}
	}
}

// TestDrainUnderLoad drains a real server the way `arrayflow serve` does
// on SIGTERM, with requests in flight. Each of them must finish with its
// reference body and Shutdown must return nil. A request arriving once the
// drain has begun is refused: 503 draining while the listener is open, a
// refused connection after it closed.
func TestDrainUnderLoad(t *testing.T) {
	driver.ResetCache()
	t.Cleanup(driver.ResetCache)
	srcs := exampleSources(t)
	names := sortedNames(srcs)
	refs := references(t, srcs)

	srv := New(&Options{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	t.Cleanup(func() { hs.Close() })
	url := "http://" + ln.Addr().String()
	c := NewClient(url)
	ctx := context.Background()
	if err := c.WaitReady(ctx, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Holding both worker slots keeps every request below admitted, past
	// the drain check, until the drain is under way.
	var held []func()
	for i := 0; i < 2; i++ {
		release, err := srv.gate.acquire(ctx)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, release)
	}
	type answer struct {
		name, body string
		err        error
	}
	answers := make(chan answer, len(names))
	for _, name := range names {
		go func(name string) {
			body, err := c.Analyze(ctx, name, srcs[name])
			answers <- answer{name, body, err}
		}(name)
	}
	for wait := time.Now(); srv.gate.queued.Load() < int64(len(names)); time.Sleep(time.Millisecond) {
		if time.Since(wait) > 10*time.Second {
			t.Fatalf("%d of %d requests queued", srv.gate.queued.Load(), len(names))
		}
	}

	srv.SetDraining(true)
	_, err = c.Analyze(ctx, "late", srcs[names[0]])
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable || se.Code != "draining" {
		t.Errorf("request after the drain began: %v (want 503 draining)", err)
	}
	shutdownCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	shutdown := make(chan error, 1)
	go func() { shutdown <- hs.Shutdown(shutdownCtx) }()
	for _, release := range held {
		release()
	}

	for range names {
		a := <-answers
		if a.err != nil {
			t.Errorf("%s: in-flight request failed during the drain: %v", a.name, a.err)
		} else if a.body != refs[a.name].analyze {
			t.Errorf("%s: in-flight request finished with a different body", a.name)
		}
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	fresh := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	if resp, err := fresh.Post(url+"/v1/analyze", "text/plain", strings.NewReader(srcs[names[0]])); err == nil {
		resp.Body.Close()
		t.Errorf("request after the drain: status %d, want a refused connection", resp.StatusCode)
	} else if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Errorf("request after the drain: %v, want a refused connection", err)
	}
}

// TestClientReusesConnections sends 20 analyze requests from each of 64
// goroutines through one Client and counts the connections the server
// accepts through its ConnState hook. The server holds the first round
// until all 64 requests have arrived, so each came on a connection of its
// own and no goroutine could hand one to another early. From then on a
// Client that keeps an idle connection for each goroutine sharing it
// never dials again: at most one connection per goroutine.
func TestClientReusesConnections(t *testing.T) {
	srcs := exampleSources(t)
	names := sortedNames(srcs)
	const goroutines, perGoroutine = 64, 20
	driver.ResetCache()
	t.Cleanup(driver.ResetCache)
	handler := New(&Options{Workers: goroutines}).Handler()
	var arrivals atomic.Int64
	var firstRound sync.WaitGroup
	firstRound.Add(goroutines)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if arrivals.Add(1) <= goroutines {
			firstRound.Done()
			firstRound.Wait()
		}
		handler.ServeHTTP(w, r)
	}))
	var conns atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)

	c := NewClient(ts.URL)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				name := names[(g+i)%len(names)]
				if _, err := c.Analyze(ctx, name, srcs[name]); err != nil {
					t.Errorf("goroutine %d: %s: %v", g, name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := conns.Load(); n > goroutines {
		t.Errorf("%d goroutines sending %d requests each opened %d connections, want at most one each",
			goroutines, perGoroutine, n)
	}
}
