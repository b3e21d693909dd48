// Package obs is Weaver's zero-dependency observability layer: named
// atomic counters, gauges, and fixed-bucket latency histograms in a
// registry, plus lightweight sampled trace spans (trace.go) whose IDs
// travel on the wire as an append-only frame field.
//
// The design constraint is that instrumentation stays on permanently:
//
//   - Metric handles are resolved ONCE at construction time (server
//     startup), so the hot path never touches the registry map or its
//     lock — it is a handful of atomic adds.
//   - Every handle method is nil-receiver safe. A nil *Registry (what
//     a server built without one runs on) hands out nil handles and
//     the instrumentation sites call them unconditionally. Live or
//     nil, the per-operation calls allocate nothing
//     (TestObsHotPathAllocatesNothing, gated in CI).
//   - Histograms are arrays of atomic buckets; Observe is one bounds
//     scan plus two atomic adds, no locks.
//
// A snapshot computes each histogram's Count as the sum of the bucket
// counts it actually read, so a snapshot taken mid-storm always sums
// consistently (Count == Σ Counts) even though individual buckets keep
// moving underneath it.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Registry. The zero value is ready to use.
type Config struct {
	// TraceSample samples one in N committed transactions for span
	// tracing. 0 means the default (64); 1 traces everything (tests).
	TraceSample int
	// SlowOpCap is the size of the ring buffer of recently finished
	// traces the slow-op log keeps. 0 means the default (128).
	SlowOpCap int
}

// Registry is a named set of metrics plus the tracer. A nil *Registry
// is the disabled mode: every constructor returns a nil handle and
// every handle method no-ops.
type Registry struct {
	cfg    Config
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	gfuncs map[string]func() int64
	hists  map[string]*Histogram
	tracer *Tracer
}

// New builds an enabled registry.
func New(cfg Config) *Registry {
	if cfg.TraceSample <= 0 {
		cfg.TraceSample = 64
	}
	if cfg.SlowOpCap <= 0 {
		cfg.SlowOpCap = 128
	}
	return &Registry{
		cfg:    cfg,
		ctrs:   map[string]*Counter{},
		gauges: map[string]*Gauge{},
		gfuncs: map[string]func() int64{},
		hists:  map[string]*Histogram{},
		tracer: newTracer(cfg.TraceSample, cfg.SlowOpCap),
	}
}

// Counter returns the named counter, creating it on first use. Calling
// with the same name returns the same handle. Nil registry → nil handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ctrs[name]
	if c == nil {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed at snapshot /
// scrape time by fn — the pattern for values the system already tracks
// (apply lag, live versions) where a push-per-update would be hot-path
// cost for no benefit. fn runs on the snapshotting goroutine and must
// be safe to call concurrently with the workload.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gfuncs[name] = fn
}

// LatencyHistogram returns the named latency histogram (observations in
// nanoseconds, rendered as Prometheus seconds). Name it *_seconds.
func (r *Registry) LatencyHistogram(name string) *Histogram {
	return r.histogram(name, latencyBounds, true)
}

// SizeHistogram returns the named unitless histogram (batch sizes,
// fan-out widths) over power-of-two bounds.
func (r *Registry) SizeHistogram(name string) *Histogram {
	return r.histogram(name, sizeBounds, false)
}

func (r *Registry) histogram(name string, bounds []uint64, seconds bool) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds, seconds)
		r.hists[name] = h
	}
	return h
}

// Tracer returns the registry's tracer; nil when the registry is
// disabled (and a nil Tracer's Start always returns nil).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// latencyBounds is a 1-2-5 decade series from 1µs to 10s, in
// nanoseconds. Wide enough for WAL fsyncs at the bottom and wedged
// historical reads at the top.
var latencyBounds = []uint64{
	1_000, 2_000, 5_000,
	10_000, 20_000, 50_000,
	100_000, 200_000, 500_000,
	1_000_000, 2_000_000, 5_000_000,
	10_000_000, 20_000_000, 50_000_000,
	100_000_000, 200_000_000, 500_000_000,
	1_000_000_000, 2_000_000_000, 5_000_000_000,
	10_000_000_000,
}

// sizeBounds covers batch sizes / fan-out widths / byte counts.
var sizeBounds = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter; 0 on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta. Safe on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value reads the gauge; 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with atomic buckets: bounds[i]
// is the inclusive upper bound of bucket i, and one extra bucket counts
// everything above the last bound. No locks anywhere.
type Histogram struct {
	bounds  []uint64 // immutable after construction
	seconds bool     // raw unit is nanoseconds; render as seconds
	buckets []atomic.Uint64
	sum     atomic.Uint64
}

func newHistogram(bounds []uint64, seconds bool) *Histogram {
	return &Histogram{
		bounds:  bounds,
		seconds: seconds,
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value in raw units (nanoseconds for latency
// histograms). Safe on a nil receiver.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
}

// Since records the elapsed time from t0 to now. Safe on a nil
// receiver.
func (h *Histogram) Since(t0 time.Time) {
	if h != nil {
		h.Observe(uint64(time.Since(t0)))
	}
}

// Dur records one duration. Negative durations clamp to zero. Safe on a
// nil receiver.
func (h *Histogram) Dur(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// snapshot reads the buckets once and derives Count from exactly those
// reads, so the returned snapshot always sums consistently.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  h.bounds,
		Counts:  make([]uint64, len(h.buckets)),
		Seconds: h.seconds,
	}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	return s
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// HistogramSnapshot is one histogram's state: Counts[i] observations at
// or under Bounds[i] (raw units), Counts[len(Bounds)] above the last
// bound. Count is always exactly the sum of Counts.
type HistogramSnapshot struct {
	Bounds  []uint64 `json:"bounds"`
	Counts  []uint64 `json:"counts"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Seconds bool     `json:"seconds,omitempty"`
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile observation (raw units), or 0 on an empty histogram. The
// overflow bucket reports the last bound — a floor, not an estimate.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if rank < cum {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Bounds[len(s.Bounds)-1]
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Mean returns the average observation in raw units (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Snapshot captures every metric. Gauge funcs run on the calling
// goroutine. A nil registry returns an empty (but non-nil-mapped)
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	ctrs := make(map[string]*Counter, len(r.ctrs))
	for n, c := range r.ctrs {
		ctrs[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	gfuncs := make(map[string]func() int64, len(r.gfuncs))
	for n, f := range r.gfuncs {
		gfuncs[n] = f
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	for n, c := range ctrs {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Value()
	}
	for n, f := range gfuncs {
		s.Gauges[n] = f()
	}
	for n, h := range hists {
		s.Histograms[n] = h.snapshot()
	}
	return s
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format. Latency histograms (recorded in nanoseconds) are
// rendered in seconds, matching their *_seconds names. A nil registry
// writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	s := r.Snapshot()
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, n := range sortedKeys(s.Counters) {
		pf("# TYPE %s counter\n%s %d\n", n, n, s.Counters[n])
	}
	for _, n := range sortedKeys(s.Gauges) {
		pf("# TYPE %s gauge\n%s %d\n", n, n, s.Gauges[n])
	}
	for _, n := range sortedKeys(s.Histograms) {
		h := s.Histograms[n]
		pf("# TYPE %s histogram\n", n)
		var cum uint64
		for i, c := range h.Counts {
			cum += c
			if i < len(h.Bounds) {
				pf("%s_bucket{le=\"%s\"} %d\n", n, renderBound(h.Bounds[i], h.Seconds), cum)
			} else {
				pf("%s_bucket{le=\"+Inf\"} %d\n", n, cum)
			}
		}
		if h.Seconds {
			pf("%s_sum %g\n", n, float64(h.Sum)/1e9)
		} else {
			pf("%s_sum %d\n", n, h.Sum)
		}
		pf("%s_count %d\n", n, h.Count)
	}
	return err
}

func renderBound(b uint64, seconds bool) string {
	if seconds {
		return fmt.Sprintf("%g", float64(b)/1e9)
	}
	return fmt.Sprintf("%d", b)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
