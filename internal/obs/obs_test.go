package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"weaver/internal/workload"
)

// TestHistogramBucketMonotonicity property-checks that for random
// observation sets, bucket bounds are strictly increasing, every
// observation lands in exactly the first bucket whose bound admits it,
// and the rendered cumulative counts are non-decreasing.
func TestHistogramBucketMonotonicity(t *testing.T) {
	r := rand.New(rand.NewSource(workload.TestSeed(t)))
	reg := New(Config{})
	h := reg.LatencyHistogram("weaver_test_lat_seconds")

	for i := 1; i < len(latencyBounds); i++ {
		if latencyBounds[i] <= latencyBounds[i-1] {
			t.Fatalf("latency bounds not strictly increasing at %d: %d <= %d", i, latencyBounds[i], latencyBounds[i-1])
		}
	}
	for i := 1; i < len(sizeBounds); i++ {
		if sizeBounds[i] <= sizeBounds[i-1] {
			t.Fatalf("size bounds not strictly increasing at %d", i)
		}
	}

	const n = 5000
	want := make([]uint64, len(latencyBounds)+1)
	for i := 0; i < n; i++ {
		// Mix uniform small values with exponentially large ones so both
		// tails get traffic.
		var v uint64
		if r.Intn(2) == 0 {
			v = uint64(r.Intn(10_000))
		} else {
			v = uint64(r.Int63n(20_000_000_000))
		}
		h.Observe(v)
		idx := 0
		for idx < len(latencyBounds) && v > latencyBounds[idx] {
			idx++
		}
		want[idx]++
	}
	s := h.snapshot()
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	for i := range want {
		if s.Counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, s.Counts[i], want[i])
		}
	}
	// Cumulative rendering must be non-decreasing.
	var cum, prev uint64
	for _, c := range s.Counts {
		cum += c
		if cum < prev {
			t.Fatalf("cumulative counts decreased")
		}
		prev = cum
	}
}

// TestHistogramConcurrentExactness checks that no observation is lost
// under concurrent recording: G goroutines each record M observations
// and the final count is exactly G*M with the per-bucket totals adding
// up.
func TestHistogramConcurrentExactness(t *testing.T) {
	reg := New(Config{})
	h := reg.SizeHistogram("weaver_test_sizes")
	const goroutines, per = 16, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(uint64((g*per + i) % 2048))
			}
		}(g)
	}
	wg.Wait()
	s := h.snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
}

// TestSnapshotIsolationMidStorm takes snapshots while writers hammer
// every metric kind and checks each snapshot is internally consistent:
// histogram Count equals the sum of its Counts, and counters never move
// backwards across successive snapshots.
func TestSnapshotIsolationMidStorm(t *testing.T) {
	reg := New(Config{})
	h := reg.LatencyHistogram("weaver_test_storm_seconds")
	c := reg.Counter("weaver_test_storm_total")
	g := reg.Gauge("weaver_test_storm_gauge")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(i % 1_000_000)
				c.Inc()
				g.Set(int64(i))
			}
		}()
	}

	var prevCount, prevCtr uint64
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		s := reg.Snapshot()
		hs := s.Histograms["weaver_test_storm_seconds"]
		var sum uint64
		for _, n := range hs.Counts {
			sum += n
		}
		if sum != hs.Count {
			t.Fatalf("mid-storm snapshot inconsistent: bucket sum %d != count %d", sum, hs.Count)
		}
		if hs.Count < prevCount {
			t.Fatalf("histogram count went backwards: %d -> %d", prevCount, hs.Count)
		}
		if s.Counters["weaver_test_storm_total"] < prevCtr {
			t.Fatalf("counter went backwards")
		}
		prevCount, prevCtr = hs.Count, s.Counters["weaver_test_storm_total"]
	}
	close(stop)
	wg.Wait()
}

// TestNilRegistryIsIdle checks the disabled mode end-to-end: nil
// registry hands out nil handles, every method no-ops, snapshots are
// empty, and the Prometheus rendering writes nothing.
func TestNilRegistryIsIdle(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil counter has a value")
	}
	g := reg.Gauge("y")
	g.Set(7)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatalf("nil gauge has a value")
	}
	reg.GaugeFunc("z", func() int64 { return 42 })
	h := reg.LatencyHistogram("h")
	h.Observe(1)
	h.Since(time.Now())
	h.Dur(time.Second)
	tr := reg.Tracer()
	if got := tr.Start(); got != nil {
		t.Fatalf("nil tracer started a trace")
	}
	tr.Done(nil)
	tr.Abort(nil)
	if ops := tr.SlowOps(5); ops != nil {
		t.Fatalf("nil tracer has slow ops")
	}
	var tt *Trace
	tt.Span("a", time.Now(), time.Now())
	tt.SpanSince("b", time.Now())
	tt.Mark(time.Now())
	tt.SpanSinceMark("c", time.Now())
	tt.Expect(2)
	if tt.ID() != 0 {
		t.Fatalf("nil trace has an ID")
	}
	s := reg.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry rendered output")
	}
}

// TestPrometheusRendering checks the exposition format: TYPE lines,
// cumulative le buckets ending in +Inf, seconds scaling on latency
// histograms, and that every series parses as "name value".
func TestPrometheusRendering(t *testing.T) {
	reg := New(Config{})
	reg.Counter("weaver_apples_total").Add(3)
	reg.Gauge("weaver_lag").Set(-2)
	reg.GaugeFunc("weaver_live", func() int64 { return 9 })
	h := reg.LatencyHistogram("weaver_wait_seconds")
	h.Observe(1_500) // 1.5µs -> le 2e-06 bucket
	h.Observe(3_000_000_000_000)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE weaver_apples_total counter",
		"weaver_apples_total 3",
		"# TYPE weaver_lag gauge",
		"weaver_lag -2",
		"weaver_live 9",
		"# TYPE weaver_wait_seconds histogram",
		`weaver_wait_seconds_bucket{le="+Inf"} 2`,
		"weaver_wait_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q in:\n%s", want, out)
		}
	}
	// The 1.5µs observation must land at the 2µs bound, rendered in seconds.
	if !strings.Contains(out, `weaver_wait_seconds_bucket{le="2e-06"} 1`) {
		t.Fatalf("seconds scaling wrong:\n%s", out)
	}
	// Every non-comment line must parse as name/labels then a number.
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Fatalf("value in %q does not parse: %v", line, err)
		}
	}
}

func TestQuantile(t *testing.T) {
	reg := New(Config{})
	h := reg.SizeHistogram("weaver_test_q")
	for i := 0; i < 100; i++ {
		h.Observe(uint64(i)) // 0..99: p50 within [32,64], p99 at 128 bound
	}
	s := h.snapshot()
	if q := s.Quantile(0.5); q != 64 {
		t.Fatalf("p50 bucket bound = %d, want 64", q)
	}
	if q := s.Quantile(0.99); q != 128 {
		t.Fatalf("p99 bucket bound = %d, want 128", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d, want 0", q)
	}
}

// TestTracerLifecycle drives a trace through the full
// gatekeeper+shards protocol: Start, spans, Mark/SpanSinceMark, Expect,
// Done from multiple participants, then the slow-op ring.
func TestTracerLifecycle(t *testing.T) {
	reg := New(Config{TraceSample: 1, SlowOpCap: 8})
	tr := reg.Tracer()
	tt := tr.Start()
	if tt == nil {
		t.Fatal("sample=1 did not trace")
	}
	if tr.Lookup(tt.ID()) != tt {
		t.Fatalf("lookup missed the active trace")
	}
	t0 := time.Now()
	tt.Span("gk_queue", t0, t0.Add(time.Millisecond))
	tt.Mark(t0.Add(2 * time.Millisecond))
	tt.Expect(2) // two shards
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := tr.Lookup(tt.ID())
			got.SpanSinceMark("wire_transfer", t0.Add(3*time.Millisecond))
			got.SpanSince("shard_apply", t0)
			tr.Done(got)
		}()
	}
	tr.Done(tt) // gatekeeper's own Done
	wg.Wait()

	ops := tr.SlowOps(10)
	if len(ops) != 1 {
		t.Fatalf("slow ops = %d, want 1", len(ops))
	}
	op := ops[0]
	names := map[string]int{}
	for _, s := range op.Spans {
		names[s.Name]++
	}
	if names["gk_queue"] != 1 || names["wire_transfer"] != 2 || names["shard_apply"] != 2 {
		t.Fatalf("unexpected span set: %v", names)
	}
	if op.Dur <= 0 {
		t.Fatalf("non-positive trace duration")
	}
	if tr.Lookup(op.ID) != nil {
		t.Fatalf("finished trace still active")
	}
}

// TestTracerSamplingAndAbort checks 1-in-N sampling counts and that
// aborted traces never reach the ring.
func TestTracerSamplingAndAbort(t *testing.T) {
	reg := New(Config{TraceSample: 8, SlowOpCap: 4})
	tr := reg.Tracer()
	sampled := 0
	for i := 0; i < 64; i++ {
		if tt := tr.Start(); tt != nil {
			sampled++
			tr.Abort(tt)
		}
	}
	if sampled != 8 {
		t.Fatalf("sampled %d of 64 at 1-in-8", sampled)
	}
	if ops := tr.SlowOps(10); len(ops) != 0 {
		t.Fatalf("aborted traces reached the ring: %d", len(ops))
	}
}

// TestSlowOpsRingAndOrder fills the ring past capacity and checks the
// slowest-first ordering and the cap.
func TestSlowOpsRingAndOrder(t *testing.T) {
	reg := New(Config{TraceSample: 1, SlowOpCap: 4})
	tr := reg.Tracer()
	for i := 1; i <= 6; i++ {
		tt := tr.Start()
		t0 := time.Now()
		tt.Span("work", t0, t0.Add(time.Duration(i)*time.Millisecond))
		tr.Done(tt)
	}
	ops := tr.SlowOps(10)
	if len(ops) != 4 {
		t.Fatalf("ring kept %d, want 4", len(ops))
	}
	for i := 1; i < len(ops); i++ {
		if ops[i].Dur > ops[i-1].Dur {
			t.Fatalf("slow ops not sorted slowest-first: %v", ops)
		}
	}
	if got := len(tr.SlowOps(2)); got != 2 {
		t.Fatalf("SlowOps(2) returned %d", got)
	}
}

// TestRegistryHandleIdentity checks that the registry returns the same
// handle for the same name, so hot-path handles resolved at
// construction time observe into the same metric the snapshot reads.
func TestRegistryHandleIdentity(t *testing.T) {
	reg := New(Config{})
	if reg.Counter("a") != reg.Counter("a") {
		t.Fatal("counter handle not stable")
	}
	if reg.LatencyHistogram("h_seconds") != reg.LatencyHistogram("h_seconds") {
		t.Fatal("histogram handle not stable")
	}
	if reg.Gauge("g") != reg.Gauge("g") {
		t.Fatal("gauge handle not stable")
	}
	reg.Counter("a").Add(2)
	if got := reg.Snapshot().Counters["a"]; got != 2 {
		t.Fatalf("snapshot sees %d, want 2", got)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	reg := New(Config{})
	h := reg.LatencyHistogram("bench_seconds")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i) % 5_000_000)
	}
	_ = fmt.Sprint(h.snapshot().Count)
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var reg *Registry
	h := reg.LatencyHistogram("bench_seconds")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i) % 5_000_000)
	}
}

// TestObsHotPathAllocatesNothing is the permanent-instrumentation gate:
// every call an instrumentation site makes per operation — on live
// handles, on an unsampled trace, and on the nil handles of a nil
// registry — must not allocate. It replaces the timer-based on/off
// throughput comparison; the ledger's trace_overhead_share row reports
// what the sampled path costs.
func TestObsHotPathAllocatesNothing(t *testing.T) {
	hotPath := func(reg *Registry) func() {
		c, g, h, tr := reg.Counter("c"), reg.Gauge("g"), reg.LatencyHistogram("h"), reg.Tracer()
		t0 := time.Now()
		return func() {
			c.Add(1)
			g.Add(1)
			h.Observe(1500)
			h.Since(t0)
			h.Dur(time.Millisecond)
			tt := tr.Start()
			tt.Span("stage", t0, t0)
			tr.Done(tt)
		}
	}
	for name, reg := range map[string]*Registry{
		"live, unsampled": New(Config{TraceSample: 1 << 30}),
		"nil registry":    nil,
	} {
		if allocs := testing.AllocsPerRun(1000, hotPath(reg)); allocs != 0 {
			t.Errorf("%s: %v allocs per operation, want 0", name, allocs)
		}
	}
}
