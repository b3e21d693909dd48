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
	"weaver/internal/experiments"
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
