// Trace spans for the refinable-timestamp pipeline. A sampled
// transaction gets a Trace record shared by everything that touches it:
// the gatekeeper records the commit-side spans (admission queue,
// timestamp mint, store commit, oracle refinement, forward), stamps the
// trace ID into the forwarded wire frames (an append-only frame field),
// and marks the forward instant; each involved shard looks the trace up
// by ID and records the wire-transfer and apply spans. When the last
// expected participant calls Done, the trace snapshot lands in a ring
// buffer of recent operations — the slow-op log — and the record
// returns to a pool.
//
// Over TCP each process has its own Tracer, so a shard-side Lookup
// misses and the trace degrades to the gatekeeper-side spans: partial
// but still useful. In-process (the embedded Cluster — its fabric frames
// every message too, but the tracer is shared) traces are complete.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxActiveTraces bounds the in-flight trace table; when a participant
// dies without calling Done the leaked record is capped here and Start
// degrades to unsampled rather than growing without bound.
const maxActiveTraces = 1024

// Tracer mints sampled traces and keeps the slow-op ring.
type Tracer struct {
	sampleN uint64
	ctr     atomic.Uint64
	ids     atomic.Uint64

	mu     sync.Mutex
	active map[uint64]*Trace
	ring   []TraceSnapshot
	next   int
	filled bool

	pool sync.Pool
}

func newTracer(sampleN, ringCap int) *Tracer {
	t := &Tracer{
		sampleN: uint64(sampleN),
		active:  map[uint64]*Trace{},
		ring:    make([]TraceSnapshot, ringCap),
	}
	t.pool.New = func() any { return &Trace{spans: make([]Span, 0, 16)} }
	return t
}

// Trace is one sampled operation's record. All methods are safe on a
// nil receiver, so call sites trace unconditionally and pay nothing
// when the operation was not sampled.
type Trace struct {
	id    uint64
	start time.Time

	// pending counts participants that still owe a Done: the
	// originating gatekeeper plus one per involved shard.
	pending atomic.Int32

	mu    sync.Mutex
	spans []Span
	mark  time.Time // the forward instant, set by the gatekeeper
}

// Span is one named stage of a trace, as an offset from the trace start
// plus a duration.
type Span struct {
	Name   string        `json:"name"`
	Offset time.Duration `json:"offset_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// Start mints a new trace if this operation is sampled, or returns nil
// (which every Trace method accepts). Nil tracer always returns nil.
func (tr *Tracer) Start() *Trace {
	if tr == nil {
		return nil
	}
	if tr.sampleN > 1 && tr.ctr.Add(1)%tr.sampleN != 0 {
		return nil
	}
	t := tr.pool.Get().(*Trace)
	t.id = tr.ids.Add(1)
	t.start = time.Now()
	t.spans = t.spans[:0]
	t.mark = time.Time{}
	t.pending.Store(1) // the originator's own Done
	tr.mu.Lock()
	if len(tr.active) >= maxActiveTraces {
		tr.mu.Unlock()
		tr.pool.Put(t)
		return nil
	}
	tr.active[t.id] = t
	tr.mu.Unlock()
	return t
}

// Lookup resolves an on-the-wire trace ID to its live record, or nil
// when unknown (different process, finished, or never sampled).
func (tr *Tracer) Lookup(id uint64) *Trace {
	if tr == nil || id == 0 {
		return nil
	}
	tr.mu.Lock()
	t := tr.active[id]
	tr.mu.Unlock()
	return t
}

// ID returns the trace's wire identity (0 on nil — the "untraced"
// value, which the frame codecs encode as an absent field).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Span records a completed stage [start, end].
func (t *Trace) Span(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Offset: start.Sub(t.start), Dur: end.Sub(start)})
	t.mu.Unlock()
}

// SpanSince records a stage from start to now.
func (t *Trace) SpanSince(name string, start time.Time) {
	if t != nil {
		t.Span(name, start, time.Now())
	}
}

// Mark stamps the handoff instant (the gatekeeper's forward time) so a
// later SpanSinceMark can measure the wire transfer.
func (t *Trace) Mark(at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.mark = at
	t.mu.Unlock()
}

// SpanSinceMark records a stage from the Mark instant to end; no-op if
// no mark was set.
func (t *Trace) SpanSinceMark(name string, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.mark.IsZero() {
		t.spans = append(t.spans, Span{Name: name, Offset: t.mark.Sub(t.start), Dur: end.Sub(t.mark)})
	}
	t.mu.Unlock()
}

// Expect adds n more participants that must call Done before the trace
// finishes (the gatekeeper calls this with the involved-shard count
// before forwarding).
func (t *Trace) Expect(n int) {
	if t != nil && n > 0 {
		t.pending.Add(int32(n))
	}
}

// Done retires one participant; the last one finishes the trace into
// the slow-op ring.
func (tr *Tracer) Done(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	if t.pending.Add(-1) != 0 {
		return
	}
	tr.finish(t)
}

// Abort discards a trace that will not complete (a failed commit
// attempt): removed from the table, not recorded.
func (tr *Tracer) Abort(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	tr.mu.Lock()
	delete(tr.active, t.id)
	tr.mu.Unlock()
	tr.pool.Put(t)
}

func (tr *Tracer) finish(t *Trace) {
	t.mu.Lock()
	var end time.Duration
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	for _, s := range spans {
		if e := s.Offset + s.Dur; e > end {
			end = e
		}
	}
	snap := TraceSnapshot{ID: t.id, Start: t.start, Dur: end, Spans: spans}
	t.mu.Unlock()

	tr.mu.Lock()
	delete(tr.active, t.id)
	tr.ring[tr.next] = snap
	tr.next++
	if tr.next == len(tr.ring) {
		tr.next, tr.filled = 0, true
	}
	tr.mu.Unlock()
	tr.pool.Put(t)
}

// TraceSnapshot is one finished trace in the slow-op log. Dur is the
// span-covered extent (offset+duration of the latest-ending span), so
// it is comparable across partial and complete traces.
type TraceSnapshot struct {
	ID    uint64        `json:"id"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	Spans []Span        `json:"spans"`
}

// SlowOps returns up to n recently finished traces, slowest first. Nil
// tracer returns nil.
func (tr *Tracer) SlowOps(n int) []TraceSnapshot {
	if tr == nil || n <= 0 {
		return nil
	}
	tr.mu.Lock()
	size := tr.next
	if tr.filled {
		size = len(tr.ring)
	}
	out := make([]TraceSnapshot, size)
	copy(out, tr.ring[:size])
	tr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Dur > out[j].Dur })
	if len(out) > n {
		out = out[:n]
	}
	return out
}
