package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/diag"
	"repro/internal/lint"
)

// vet-serve: closed-loop clients POST /v1/vet to an in-process service with
// default options. Every program has one shape, so the per-request cost is
// unimodal and p90 never falls between two request classes. Constant trip
// counts stay out of the nests: a nest of constant trips in the hundreds
// costs seconds per request in the race analyzer's interpreter checks.
var vetShape = shape{ConstLoops: 4, ConstTrip: 16, SymLoops: 2, Nests: 2, Stmts: 8, Arrays: 3, MaxDist: 3, CondPct: 10}

const (
	vetCorpus  = 32
	vetCallers = 2 // = nproc on the reference machine
)

// analyzerIDs are the vet analyzers the traced run times one by one. A new
// analyzer missing here makes every re-enacted op differ from its
// reference, so the list cannot silently go stale.
var analyzerIDs = []string{"bounds", "deadstore", "race", "reuse", "selfcheck", "uninit"}

type vetProg struct {
	name, src string
	ref       vetRef
}

type vetServe struct {
	progs []vetProg
	perm  [][]int // per caller: the order it walks the corpus
	srv   *server
	// hook is the tracer the handler wrapper records into (nil = none).
	hook atomic.Pointer[tracer]
}

func setupVetServe(env *runEnv) (session, error) {
	if err := setupOracles(env.root); err != nil {
		return nil, err
	}
	s := &vetServe{progs: make([]vetProg, vetCorpus)}
	for k := range s.progs {
		s.progs[k].name = fmt.Sprintf("vet%02d.loop", k)
		s.progs[k].src = generate(vetShape, env.seed*1_000_003+int64(k))
	}
	err := parallel(vetCallers, len(s.progs), func(k int) error {
		ref, err := referenceVet(s.progs[k].name, s.progs[k].src)
		s.progs[k].ref = ref
		return err
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(env.seed))
	for c := 0; c < vetCallers; c++ {
		s.perm = append(s.perm, rng.Perm(vetCorpus))
	}
	if s.srv, err = startServer(&tracedHandler{next: arrayflow.NewServiceHandler(nil), hook: &s.hook}); err != nil {
		return nil, err
	}
	// The service path must reproduce the goldens too, and one pass over
	// the corpus warms the memo so every timed solve is a hit.
	err = checkGoldens(env.root, func(name, src, format string) (string, error) {
		status, _, body, err := s.srv.vet(name, src, format)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", status, body)
		}
		return body, err
	})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("golden oracle over HTTP: %w", err)
	}
	err = parallel(vetCallers, len(s.progs), func(k int) error {
		return s.roundTrip(&s.progs[k], "text")
	})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("memo warm-up: %w", err)
	}
	return s, nil
}

// pick returns caller c's j-th program and format. Formats rotate per
// request; 32 programs and 3 formats are coprime, so every pairing recurs.
func (s *vetServe) pick(c, j int) (*vetProg, string) {
	return &s.progs[s.perm[c][j%len(s.progs)]], formats[(j+c)%len(formats)]
}

func (s *vetServe) op(c, j int) (time.Duration, error) {
	p, format := s.pick(c, j)
	t0 := time.Now()
	status, exit, body, err := s.srv.vet(p.name, p.src, format)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	return d, p.checkHTTP(format, status, exit, body)
}

// roundTrip makes one checked request outside any timing.
func (s *vetServe) roundTrip(p *vetProg, format string) error {
	status, exit, body, err := s.srv.vet(p.name, p.src, format)
	if err != nil {
		return err
	}
	return p.checkHTTP(format, status, exit, body)
}

// checkHTTP compares a response with the reference: status, the
// X-Arrayflow-Exit header, and the body byte for byte. Exit 1 (findings
// present) is a correct outcome when the reference says so.
func (p *vetProg) checkHTTP(format string, status int, exit, body string) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s (%s): HTTP %d: %s", p.name, format, status, firstLine(body))
	}
	if want := strconv.Itoa(p.ref.exit); exit != want {
		return fmt.Errorf("%s (%s): X-Arrayflow-Exit %q, want %q", p.name, format, exit, want)
	}
	return same(p.name+" ("+format+")", p.ref.body[format], body)
}

// reenact runs the traced caller's j-th op stage by stage through the calls
// the service makes, then makes the op's HTTP round trip.
func (s *vetServe) reenact(j int, tr *tracer, lc *layerCounts) (time.Duration, error) {
	p, format := s.pick(0, j)
	s.hook.Store(tr)
	defer s.hook.Store(nil)
	t0 := time.Now()
	root := tr.begin("op")
	body, exit, status, hexit, hbody, err := s.stages(p, format, tr, lc)
	tr.end(root)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if exit != p.ref.exit {
		return d, fmt.Errorf("%s (%s): re-enacted exit %d, want %d", p.name, format, exit, p.ref.exit)
	}
	if err := same(p.name+" ("+format+", re-enacted)", p.ref.body[format], body); err != nil {
		return d, err
	}
	return d, p.checkHTTP(format, status, hexit, hbody)
}

func (s *vetServe) stages(p *vetProg, format string, tr *tracer, lc *layerCounts) (body string, exit, status int, hexit, hbody string, err error) {
	var prog, norm *arrayflow.Program
	tr.call("parser", func() { prog, err = arrayflow.Parse(p.src) })
	if err != nil {
		return
	}
	tr.call("sema.check", func() { _, err = arrayflow.Check(prog) })
	if err != nil {
		return
	}
	tr.call("sema.normalize", func() { norm, err = arrayflow.Normalize(prog) })
	if err != nil {
		return
	}
	var pa *arrayflow.ProgramAnalysis
	specs := []*arrayflow.Spec{arrayflow.MustReachingDefs(), arrayflow.AvailableValues(), arrayflow.BusyStores(), arrayflow.ReachingRefs()}
	tr.call("driver.analyze", func() {
		pa, err = arrayflow.AnalyzeProgramOpts(norm, &arrayflow.AnalyzeOptions{Specs: specs, Parallelism: 1})
	})
	if err != nil {
		return
	}
	var fs []arrayflow.Finding
	for _, id := range analyzerIDs {
		tr.call("lint."+id, func() {
			fs = append(fs, lint.RunOn(p.name, pa, &lint.Options{Parallelism: 1, Analyzers: []string{id}, Src: p.src})...)
		})
	}
	tr.call("lint.suppress", func() {
		diag.Sort(fs)
		fs = lint.ApplySuppressions(diag.Dedup(fs), norm.Directives)
	})
	tr.call("diag."+format, func() { body, err = renderVet(p.name, format, fs) })
	if err != nil {
		return
	}
	exit = (&arrayflow.VetResult{Findings: fs}).ExitCode()
	lc.addAnalysis(pa.Metrics)
	lc.addFindings(fs, len(body))

	id := tr.begin("service.transport")
	status, hexit, hbody, err = s.srv.vet(p.name, p.src, format)
	tr.end(id)
	return
}

// rejectedFrac reads the refusal counters from /v1/stats: refused requests
// over vet requests.
func (s *vetServe) rejectedFrac() (float64, error) {
	resp, err := s.srv.client.Get(s.srv.base + "/v1/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Requests struct {
			Vet int64 `json:"vet"`
		} `json:"requests"`
		Rejected map[string]int64 `json:"rejected"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("decoding /v1/stats: %v", err)
	}
	if st.Requests.Vet == 0 || len(st.Rejected) == 0 {
		return 0, fmt.Errorf("/v1/stats has no vet requests or no rejected block")
	}
	var rejected int64
	for _, n := range st.Rejected {
		rejected += n
	}
	return float64(rejected) / float64(st.Requests.Vet), nil
}

func (s *vetServe) close() error {
	err := s.srv.close()
	arrayflow.ResetAnalysisCache()
	return err
}

// tracedHandler is the benchmark-side wrapper around the service handler:
// with a tracer hooked in it records the handler's span, otherwise it only
// forwards.
type tracedHandler struct {
	next http.Handler
	hook *atomic.Pointer[tracer]
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.hook.Load()
	id := tr.begin("service.handler")
	h.next.ServeHTTP(w, r)
	tr.end(id)
}

// server is the in-process service on a loopback listener plus the client
// the callers share.
type server struct {
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:    &http.Server{Handler: h},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * vetCallers, DisableCompression: true}},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// vet posts src to /v1/vet and returns the status, the X-Arrayflow-Exit
// header and the whole body.
func (s *server) vet(name, src, format string) (int, string, string, error) {
	u := s.base + "/v1/vet?format=" + format + "&name=" + url.QueryEscape(name)
	resp, err := s.client.Post(u, "text/plain", strings.NewReader(src))
	if err != nil {
		return 0, "", "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Arrayflow-Exit"), string(b), err
}

// close shuts the server down and waits until it has stopped serving.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
	return err
}

// parallel runs fn(0..n-1) on w goroutines and returns the first error.
func parallel(w, n int, fn func(k int) error) error {
	var next atomic.Int64
	errs := make([]error, w)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				if err := fn(k); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
