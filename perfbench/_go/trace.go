package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// indexes the span that caused this one (-1 for an op's root).
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// AllocBytes and AllocObjects are the heap allocations made while the
	// span was open, children included.
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`
}

// tracer records spans in memory around the benchmark's calls into the
// program. A nil tracer records nothing, so the untraced run executes the
// same calls without the bookkeeping. Traced ops run one at a time; the
// mutex orders the handler span, which the server goroutine records, with
// the client's spans.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	op    int
	spans []span
	open  []int // indices of the open spans, innermost last
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// allocs returns the exact cumulative heap allocation counters. It stops
// the world, which trace.overhead_frac accounts for.
func allocs() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// begin opens a span named name as a child of the innermost open span and
// returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	b, o := allocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent,
		StartNS: time.Since(t.epoch).Nanoseconds(), AllocBytes: b, AllocObjects: o})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	b, o := allocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.EndNS = now
	s.AllocBytes = b - s.AllocBytes
	s.AllocObjects = o - s.AllocObjects
	t.open = t.open[:len(t.open)-1]
}

// call runs fn inside a span.
func (t *tracer) call(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// layerTotals sums, per span name, the self time (duration minus the time
// its children cover), the allocations, and the span count. It also
// returns the total duration of the op roots.
func (t *tracer) layerTotals() (map[string]*layerTotal, int64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]*layerTotal{}
	var rootNS int64
	for i, s := range t.spans {
		if s.Parent < 0 {
			rootNS += s.EndNS - s.StartNS
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.selfNS += s.EndNS - s.StartNS - child[i]
		lt.allocBytes += s.AllocBytes
		lt.allocObjs += s.AllocObjects
		lt.count++
	}
	return out, rootNS
}

type layerTotal struct {
	selfNS     int64
	allocBytes uint64
	allocObjs  uint64
	count      int
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
