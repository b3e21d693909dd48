// Micro-benchmarks of the core operations, for measuring while you work.
// The numbers a PR is judged on are rows of `go run ./benchmark`; the
// paper's figures (§6) are printed by cmd/weaver-bench.
package weaver_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"weaver"
	"weaver/internal/core"
	"weaver/internal/experiments"
	"weaver/internal/graph"
	"weaver/internal/kvstore"
	"weaver/internal/nodeprog"
	"weaver/internal/oracle"
	"weaver/internal/partition"
	"weaver/internal/shard"
	"weaver/internal/transport"
	"weaver/internal/wire"
	"weaver/internal/workload"
)

func benchCluster(b *testing.B, gks, shards int) *weaver.Cluster {
	b.Helper()
	c, err := weaver.Open(weaver.Config{
		Gatekeepers:    gks,
		Shards:         shards,
		AnnouncePeriod: 500 * time.Microsecond,
		NopPeriod:      250 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkTxCreateVertex measures single-vertex transaction commits.
func BenchmarkTxCreateVertex(b *testing.B) {
	c := benchCluster(b, 2, 2)
	cl := c.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := cl.Begin()
		tx.CreateVertex(weaver.VertexID(fmt.Sprintf("v%d", i)))
		if _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxCreateEdge measures edge-append transactions to one vertex.
func BenchmarkTxCreateEdge(b *testing.B) {
	c := benchCluster(b, 2, 2)
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *weaver.Tx) error {
		tx.CreateVertex("hub")
		tx.CreateVertex("spoke")
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := cl.Begin()
		tx.CreateEdge("hub", "spoke")
		if _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetNodeProgram measures the full node-program round trip for a
// vertex-local read (the Fig 12 unit of work).
func BenchmarkGetNodeProgram(b *testing.B) {
	c := benchCluster(b, 2, 2)
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *weaver.Tx) error {
		tx.CreateVertex("v")
		tx.SetProperty("v", "k", "val")
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := cl.GetNode("v"); err != nil || !ok {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraverseChain measures a 32-hop BFS across 4 shards.
func BenchmarkTraverseChain(b *testing.B) {
	c := benchCluster(b, 2, 4)
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *weaver.Tx) error {
		for i := 0; i < 32; i++ {
			tx.CreateVertex(weaver.VertexID(fmt.Sprintf("c%d", i)))
		}
		for i := 0; i < 31; i++ {
			tx.CreateEdge(weaver.VertexID(fmt.Sprintf("c%d", i)), weaver.VertexID(fmt.Sprintf("c%d", i+1)))
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids, _, err := cl.Traverse("c0", "", "", 0)
		if err != nil || len(ids) != 32 {
			b.Fatalf("len=%d err=%v", len(ids), err)
		}
	}
}

// latencyPager simulates the §6.1 deployment where evicted vertices page
// in from a backing store across the network (the paper reads from
// HyperDex Warp): every read stalls the caller for a fixed latency.
type latencyPager struct {
	kvstore.Backing // the shard's store handle; paging reads only GetVersioned
	records         map[string][]byte
	delay           time.Duration
}

func (p *latencyPager) GetVersioned(key string) ([]byte, uint64, bool) {
	time.Sleep(p.delay)
	data, ok := p.records[key]
	return data, 1, ok
}

// BenchmarkShardApply measures the shard apply path in isolation — the
// stage parallelized by conflict-aware batch execution. A driver feeds one
// bare shard a stream of pre-committed, mutually non-conflicting
// transactions (one distinct vertex per transaction) and waits for the
// in-memory graph to absorb them all. "serial" is the paper's
// single-goroutine event loop; "workersN" drains the same stream through
// an N-worker pool (Config.Workers), which batches every
// disjoint-footprint transaction it can prove executable.
//
// Two scenarios:
//
//   - mem: purely in-memory apply (64 edge-creates per transaction). The
//     win here is hardware parallelism, so expect speedup proportional to
//     available cores — and rough parity (worker-pool handoff overhead)
//     on a single-core machine.
//   - paged: every transaction faults its vertex in from a backing store
//     with 100µs simulated latency (§6.1 demand paging). Apply is
//     stall-dominated, so the worker pool overlaps the stalls and wins
//     regardless of core count — this is the headline serial-vs-parallel
//     comparison.
func BenchmarkShardApply(b *testing.B) {
	const (
		txs      = 256
		opsPerTx = 64
		vertices = 256
	)
	type scenario struct {
		name    string
		workers int
		paged   bool
	}
	scenarios := []scenario{
		{"mem/serial", 0, false}, {"mem/workers4", 4, false}, {"mem/workers8", 8, false},
		{"paged/serial", 0, true}, {"paged/workers4", 4, true}, {"paged/workers8", 8, true},
	}
	for _, sc := range scenarios {
		b.Run(sc.name, func(b *testing.B) {
			addr := transport.ShardAddr(0)
			var maxBatch uint64
			txCount := txs
			if sc.paged {
				txCount = 128 // paging stalls dominate; keep iterations sane
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Everything but the pipeline itself happens off the
				// clock: a fresh shard per iteration keeps the heap (and
				// thus GC time) constant, and messages are pre-built. The
				// timed region is send → ingest → select → apply → done.
				b.StopTimer()
				f := transport.NewFabric()
				drv := f.Endpoint(transport.GatekeeperAddr(0)) // absorbs TxApplied acks
				clock := core.NewVectorClock(0, 1, 0)
				seq := transport.NewSequencer()
				baseTS := clock.Tick()

				cfg := shard.Config{ID: 0, NumGatekeepers: 1, Workers: sc.workers}
				var kv kvstore.Backing
				if sc.paged {
					// The "p" vertices live only in the backing store;
					// each transaction's op on one of them faults it in
					// (further ops on a freshly paged vertex are skipped —
					// the record protocol already includes their effects).
					pager := &latencyPager{records: make(map[string][]byte), delay: 100 * time.Microsecond}
					for v := 0; v < txCount; v++ {
						id := graph.VertexID(fmt.Sprintf("p%d", v))
						rec := graph.NewVertexRecord(id, 0)
						rec.LastTS = baseTS
						pager.records[graph.VertexKey(id)] = graph.EncodeRecord(rec)
					}
					kv, cfg.MaxVertices = pager, vertices+txCount+1 // paging on, nothing evicted
				}
				sh := shard.New(cfg, f.Endpoint(addr), kv, oracle.NewService(), nodeprog.NewRegistry(), partition.NewHash(1))
				sh.Start()
				waitExecuted := func(n uint64) {
					for sh.Stats().TxExecuted < n {
						time.Sleep(20 * time.Microsecond)
					}
				}
				setup := make([]graph.Op, 0, vertices)
				for v := 0; v < vertices; v++ {
					setup = append(setup, graph.Op{Kind: graph.OpCreateVertex, Vertex: graph.VertexID(fmt.Sprintf("v%d", v))})
				}
				drv.Send(addr, wire.TxForward{TS: clock.Tick(), Seq: seq.Next(addr), Ops: setup})
				waitExecuted(1)
				executed := uint64(1)

				msgs := make([]wire.TxForward, txCount)
				for t := 0; t < txCount; t++ {
					// Distinct vertices per transaction: zero conflicts,
					// so the parallel path can batch them all.
					v := graph.VertexID(fmt.Sprintf("v%d", t%vertices))
					n := opsPerTx
					if sc.paged {
						n = 4 // the page-in stall dominates, not op count
					}
					ops := make([]graph.Op, 0, n)
					if sc.paged {
						// First op faults p<t> in from the slow store; the
						// rest are real applies on the resident v<t>.
						ops = append(ops, graph.Op{Kind: graph.OpSetVertexProp, Vertex: graph.VertexID(fmt.Sprintf("p%d", t)), Key: "k", Value: "1"})
					}
					for e := len(ops); e < n; e++ {
						ops = append(ops, graph.Op{
							Kind:   graph.OpCreateEdge,
							Vertex: v,
							Edge:   graph.EdgeID(fmt.Sprintf("e%d_%d", t, e)),
							To:     v,
						})
					}
					msgs[t] = wire.TxForward{TS: clock.Tick(), Seq: seq.Next(addr), Ops: ops}
				}
				runtime.GC()
				b.StartTimer()

				for t := range msgs {
					drv.Send(addr, msgs[t])
				}
				waitExecuted(executed + uint64(txCount))

				b.StopTimer()
				st := sh.Stats()
				if st.ApplyErrors != 0 {
					b.Fatalf("apply errors: %+v", st)
				}
				if st.MaxBatchTx > maxBatch {
					maxBatch = st.MaxBatchTx
				}
				sh.Stop()
				b.StartTimer()
			}
			b.StopTimer()
			elapsed := b.Elapsed()
			if elapsed > 0 {
				b.ReportMetric(float64(uint64(b.N)*uint64(txCount))/elapsed.Seconds(), "tx/s")
			}
			b.ReportMetric(float64(maxBatch), "max_batch_tx")
		})
	}
}

// BenchmarkBulkLoad compares the ways of populating a durable cluster
// with a ~100k-edge social graph, all fully applied on the shards (not
// just committed) and all crash-safe when done:
//
//   - tx: the transactional load path at natural application granularity
//     (one RunTx per vertex and its out-edges, as every app in examples/
//     writes) — every commit write-ahead-logged and fsynced;
//   - tx-chunked: the hand-tuned 2000-edge mega-batch loader the repo
//     used before the snapshot subsystem, amortizing commit machinery and
//     fsyncs ~2000-fold;
//   - bulk: Cluster.BulkLoad — LDG placement, parallel segment builders,
//     direct install, one checkpoint for durability instead of a WAL
//     record per commit (§6's evaluation runs on graphs bulk-loaded this
//     way, up to 1.47B edges).
//
// The edges/s metric is the headline: bulk ingest lands well over 5x the
// transactional load path (and still well clear of the hand-tuned batch
// loader, with a recovery story the WAL-replay path cannot offer).
func BenchmarkBulkLoad(b *testing.B) {
	g := workload.Social(12500, 8, 1) // ≈100k edges
	edges := make([]weaver.BulkEdge, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = weaver.BulkEdge{From: e.From, To: e.To}
	}
	open := func(b *testing.B) *weaver.Cluster {
		b.Helper()
		c, err := weaver.Open(weaver.Config{
			Gatekeepers:    2,
			Shards:         4,
			AnnouncePeriod: 500 * time.Microsecond,
			NopPeriod:      250 * time.Microsecond,
			Directory:      weaver.NewMappedDirectory(4),
			WALPath:        filepath.Join(b.TempDir(), "bench.wal"),
		})
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	run := func(b *testing.B, load func(*weaver.Cluster)) {
		var loading time.Duration
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := open(b)
			// Collect the previous iteration's cluster off the clock, so
			// neither load path pays GC-assist debt for dead graphs.
			runtime.GC()
			b.StartTimer()
			t0 := time.Now()
			load(c)
			if err := c.Quiesce(120 * time.Second); err != nil {
				b.Fatal(err)
			}
			loading += time.Since(t0)
			b.StopTimer()
			c.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(len(g.Edges))*float64(b.N)/loading.Seconds(), "edges/s")
	}

	// tx is the transactional load path at natural application granularity
	// (one transaction per vertex and its out-edges); tx-chunked is the
	// hand-tuned 2000-edge mega-batch loader the repo used before bulk
	// ingest; bulk is the snapshot subsystem.
	b.Run("tx", func(b *testing.B) {
		run(b, func(c *weaver.Cluster) {
			if err := experiments.LoadSocialWeaverEntity(c, g); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("tx-chunked", func(b *testing.B) {
		run(b, func(c *weaver.Cluster) {
			if err := experiments.LoadSocialWeaverTx(c, g); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("bulk", func(b *testing.B) {
		run(b, func(c *weaver.Cluster) {
			if _, err := c.BulkLoad(g.Vertices, edges); err != nil {
				b.Fatal(err)
			}
		})
	})
}

// BenchmarkAblationOracleReplication compares the direct timeline oracle
// against the chain-replicated deployment (§3.4): the cost of fault
// tolerance on the reactive ordering path.
func BenchmarkAblationOracleReplication(b *testing.B) {
	for _, cfg := range []struct {
		name     string
		replicas int
	}{{"direct", 0}, {"chain3", 3}} {
		b.Run(cfg.name, func(b *testing.B) {
			c, err := weaver.Open(weaver.Config{
				Gatekeepers:    2,
				Shards:         2,
				AnnouncePeriod: 500 * time.Microsecond,
				NopPeriod:      250 * time.Microsecond,
				OracleReplicas: cfg.replicas,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			cl := c.Client()
			if _, err := cl.RunTx(func(tx *weaver.Tx) error {
				tx.CreateVertex("hot")
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.RunTx(func(tx *weaver.Tx) error {
					tx.SetProperty("hot", "n", fmt.Sprintf("%d", i))
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
