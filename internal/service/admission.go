package service

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"time"
)

// Admission outcomes. The gate never blocks past the request deadline and
// never admits more than workers+maxQueue requests: overload degrades to a
// bounded-latency refusal (429), not an unbounded solve.
var (
	// errOverload means the queue was already at MaxQueue waiting requests
	// when this one arrived.
	errOverload = errors.New("service: queue full")
	// errDeadline means the request's deadline expired while it waited for
	// a worker slot.
	errDeadline = errors.New("service: deadline expired in queue")
)

// gate is the queue-depth admission controller: at most `workers` requests
// execute at once, at most `maxQueue` more wait for a slot, and everything
// beyond that is refused immediately. Waiting is bounded by the request
// context's deadline.
type gate struct {
	slots    chan struct{}
	maxQueue int64
	// queued counts requests currently waiting for a slot; inFlight counts
	// requests holding one.
	queued   atomic.Int64
	inFlight atomic.Int64
}

func newGate(workers, maxQueue int) *gate {
	return &gate{slots: make(chan struct{}, workers), maxQueue: int64(maxQueue)}
}

// acquire claims a worker slot, waiting up to the context deadline. It
// returns a release function on success, errOverload when the wait queue is
// full, or errDeadline when the deadline expired first.
func (g *gate) acquire(ctx context.Context) (func(), error) {
	// Fast path: a slot is free, skip the queue accounting entirely.
	select {
	case g.slots <- struct{}{}:
		g.inFlight.Add(1)
		return g.release, nil
	default:
	}
	if g.queued.Add(1) > g.maxQueue {
		g.queued.Add(-1)
		return nil, errOverload
	}
	defer g.queued.Add(-1)
	select {
	case g.slots <- struct{}{}:
		g.inFlight.Add(1)
		return g.release, nil
	case <-ctx.Done():
		return nil, errDeadline
	}
}

func (g *gate) release() {
	g.inFlight.Add(-1)
	<-g.slots
}

// histBuckets is the bucket count of the latency histogram: bucket i holds
// completions with latency in [2^(i-1), 2^i) microseconds, so 40 buckets
// cover sub-microsecond through ~6 days.
const histBuckets = 40

// histogram is a lock-free log2 latency histogram. It trades precision for
// a fixed footprint: quantiles are reported as the upper bound of the
// bucket holding the requested rank, which is within 2× of the true value —
// plenty for overload estimation and regression gating.
type histogram struct {
	counts [histBuckets]atomic.Int64
	total  atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	b := 0
	for v := us; v > 0; v >>= 1 {
		b++
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.counts[b].Add(1)
	h.total.Add(1)
}

// quantile returns the q-quantile (0 < q ≤ 1) in milliseconds, or 0 when
// nothing was observed. The snapshot is not atomic across buckets; under
// concurrent writes the answer is approximate, which is all a stats
// endpoint needs.
func (h *histogram) quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.counts[i].Load()
		if seen >= rank {
			// Upper bound of bucket i is 2^i microseconds.
			return float64(int64(1)<<uint(i)) / 1000.0
		}
	}
	return float64(int64(1)<<uint(histBuckets-1)) / 1000.0
}

// counters aggregates the server's request accounting for /v1/stats.
type counters struct {
	analyze, vet, batch, stats       atomic.Int64
	completed                        atomic.Int64
	rejectedOverload                 atomic.Int64
	rejectedDeadline                 atomic.Int64
	rejectedOversize                 atomic.Int64
	rejectedDraining                 atomic.Int64
	rejectedBadRequest               atomic.Int64
	frontEndErrors                   atomic.Int64
	batchPrograms, batchProgramFails atomic.Int64
}
