package weaver

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"weaver/internal/obs"
)

// TestTraceSpansCoverPipeline is the observability acceptance test: a
// committed transaction produces one trace whose spans
// cover every pipeline stage — gatekeeper queue, oracle refinement, wire
// transfer, shard apply — and the time those stages cover is no more
// than the end-to-end latency measured around the commit.
func TestTraceSpansCoverPipeline(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.TraceSample = 1
	c := openTest(t, cfg)
	cl := c.Client()

	t0 := time.Now()
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("alice")
		tx.CreateVertex("bob")
		tx.CreateEdge("alice", "bob")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	e2e := time.Since(t0)

	ops := c.SlowOps(16)
	if len(ops) == 0 {
		t.Fatal("no traces in slow-op log despite TraceSample=1")
	}
	// The pipeline stages the acceptance criterion names. gk_mint,
	// gk_execute, gk_store_commit, gk_forward, and shard_queue are also
	// recorded but the four below are the cross-component story.
	required := []string{"gk_queue", "oracle_refine", "wire_transfer", "shard_apply"}
	var full *obs.TraceSnapshot
	for i := range ops {
		have := map[string]bool{}
		for _, sp := range ops[i].Spans {
			have[sp.Name] = true
		}
		ok := true
		for _, name := range required {
			if !have[name] {
				ok = false
				break
			}
		}
		if ok {
			full = &ops[i]
			break
		}
	}
	if full == nil {
		for _, op := range ops {
			t.Logf("trace %x: %d spans %+v", op.ID, len(op.Spans), op.Spans)
		}
		t.Fatalf("no trace carries all of %v", required)
	}
	// The time the required stages cover must fit within the measured
	// end-to-end latency (commit + apply fence). Stages of different
	// shards overlap (both shards' wire transfers run at once), so what
	// is bounded is the union of the stages' [Offset, Offset+Dur)
	// intervals, not the sum of their durations.
	var stages []obs.Span
	for _, sp := range full.Spans {
		if slices.Contains(required, sp.Name) {
			stages = append(stages, sp)
		}
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i].Offset < stages[j].Offset })
	var covered, end time.Duration
	for i, sp := range stages {
		lo, hi := sp.Offset, sp.Offset+sp.Dur
		if i > 0 && lo < end {
			lo = end
		}
		if hi > lo {
			covered += hi - lo
			end = hi
		}
	}
	if covered > e2e {
		t.Fatalf("stages cover %v, more than measured e2e %v\nspans: %+v", covered, e2e, full.Spans)
	}
	if covered == 0 {
		t.Fatal("stages cover no time — spans not timed")
	}
}

// TestMetricsSnapshotPopulated checks the typed Metrics surface: after a
// workload on a durable store, the stage histograms,
// wire counters, and WAL histograms all have observations.
func TestMetricsSnapshotPopulated(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.WALPath = filepath.Join(t.TempDir(), "wal")
	c := openTest(t, cfg)
	cl := c.Client()
	for i := 0; i < 20; i++ {
		if _, err := cl.RunTx(func(tx *Tx) error {
			tx.CreateVertex(VertexID(fmt.Sprintf("v%d", i)))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap := c.Metrics()
	for _, h := range []string{
		"weaver_gk_queue_wait_seconds",
		"weaver_gk_mint_seconds",
		"weaver_gk_store_commit_seconds",
		"weaver_oracle_refine_wait_seconds",
		"weaver_gk_forward_seconds",
		"weaver_gk_commit_seconds",
		"weaver_client_tx_seconds",
		"weaver_shard_queue_wait_seconds",
		"weaver_shard_apply_seconds",
		"weaver_wal_fsync_seconds",
		"weaver_wal_group_commit_txns",
	} {
		hs, ok := snap.Histograms[h]
		if !ok {
			t.Errorf("histogram %s not registered", h)
			continue
		}
		if hs.Count == 0 {
			t.Errorf("histogram %s has no observations", h)
		}
	}
	for _, ctr := range []string{
		"weaver_wire_encoded_bytes_total",
		"weaver_wire_decoded_bytes_total",
		"weaver_wire_frames_total",
	} {
		if snap.Counters[ctr] == 0 {
			t.Errorf("counter %s is zero after a framed workload", ctr)
		}
	}
	// Refusals and failed sweeps (zero on a healthy run), concurrent pairs
	// shown to a read (zero when no write races a read) and NOPs asked for
	// parked reads (zero without reads): registered.
	for _, ctr := range []string{
		"weaver_shard_stale_reads_gc_total",
		"weaver_shard_stale_reads_install_total",
		"weaver_shard_recover_errors_total",
		"weaver_shard_read_refines_total",
		"weaver_shard_nop_requests_total",
	} {
		if _, ok := snap.Counters[ctr]; !ok {
			t.Errorf("counter %s not registered", ctr)
		}
	}
	// Version GC is off in this configuration: its pass histogram is
	// registered, without observations.
	if _, ok := snap.Histograms["weaver_shard_gc_sweep_seconds"]; !ok {
		t.Error("histogram weaver_shard_gc_sweep_seconds not registered")
	}
	for _, g := range []string{"weaver_gk_apply_lag", "weaver_oracle_events", "weaver_oracle_gc_collected", "weaver_shard_gc_retired"} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Errorf("gauge %s not registered", g)
		}
	}
}

// TestStatsConcurrentReaders is the stats-audit regression: Stats(),
// Metrics(), SlowOps(), and the Prometheus renderer run concurrently
// with a committing workload. Run under -race (the tier-1 suite does);
// any non-atomic counter read while workers run fails here.
func TestStatsConcurrentReaders(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.TraceSample = 1
	cfg.Indexes = []IndexSpec{{Key: "name"}}
	c := openTest(t, cfg)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := c.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := VertexID(fmt.Sprintf("w%d-%d", w, i))
				if _, err := cl.RunTx(func(tx *Tx) error {
					tx.CreateVertex(id)
					tx.SetProperty(id, "name", "x")
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := cl.Lookup("name", "x"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	deadline := time.After(500 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			_ = c.Stats()
			_ = c.Metrics()
			_ = c.SlowOps(8)
			_ = c.Observability().WritePrometheus(discard{})
		}
	}
	close(stop)
	wg.Wait()
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestGCWatermarkAgeGauge: gatekeeper 0's weaver_gc_watermark_age_seconds
// is the time since the cluster GC watermark last advanced. It stays
// small while GC rounds run, grows while a pinned snapshot holds the
// watermark, and falls back once the pin is released.
func TestGCWatermarkAgeGauge(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.GCPeriod = 2 * time.Millisecond
	c := openTest(t, cfg)
	cl := c.Client()
	age := func() int64 {
		v, ok := c.Metrics().Gauges["weaver_gc_watermark_age_seconds"]
		if !ok {
			t.Fatal("gauge weaver_gc_watermark_age_seconds not registered")
		}
		return v
	}
	commit := func(i int) {
		if _, err := cl.RunTx(func(tx *Tx) error {
			tx.CreateVertex(VertexID(fmt.Sprintf("v%d", i)))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Each phase runs past the gauge's one-second resolution.
	i := 0
	for end := time.Now().Add(1500 * time.Millisecond); time.Now().Before(end); i++ {
		commit(i)
		if a := age(); a > 1 {
			t.Fatalf("watermark age %d s while GC runs", a)
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap, err := c.SnapshotTS()
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); age() < 2; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("watermark age %d s after 10 s behind a pin", age())
		}
		commit(i)
		time.Sleep(5 * time.Millisecond)
	}
	snap.Close()
	for deadline := time.Now().Add(5 * time.Second); age() > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("watermark age %d s 5 s after the pin was released", age())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
