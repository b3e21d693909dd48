// Micro-benchmarks of the core operations, for measuring while you work.
// The numbers a PR is judged on are rows of `go run ./benchmark`.
package weaver_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"weaver"
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

// BenchmarkBulkLoad compares the two ways of populating a durable cluster
// with a ~100k-edge social graph, both fully applied on the shards (not
// just committed) and both crash-safe when done:
//
//   - tx: the transactional load path at natural application granularity
//     (one RunTx per vertex and its out-edges, as every app in examples/
//     writes) — every commit write-ahead-logged and fsynced;
//   - bulk: Cluster.BulkLoadGraph — LDG placement, parallel segment builders,
//     direct install, one checkpoint for durability instead of a WAL
//     record per commit (§6's evaluation runs on graphs bulk-loaded this
//     way, up to 1.47B edges).
//
// The edges/s metric is the headline: bulk ingest lands well over 5x the
// transactional load path.
func BenchmarkBulkLoad(b *testing.B) {
	g := workload.Social(12500, 8, 1) // ≈100k edges
	edges := make([]weaver.BulkEdge, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = weaver.BulkEdge{From: e.From, To: e.To}
	}
	verts := make([]weaver.BulkVertex, len(g.Vertices))
	for i, v := range g.Vertices {
		verts[i] = weaver.BulkVertex{ID: v}
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

	b.Run("tx", func(b *testing.B) {
		run(b, func(c *weaver.Cluster) {
			cl := c.Client()
			for _, v := range g.Vertices {
				if _, err := cl.RunTx(func(tx *weaver.Tx) error {
					tx.CreateVertex(v)
					for _, to := range g.Out[v] {
						tx.CreateEdge(v, to)
					}
					return nil
				}); err != nil {
					b.Fatalf("load %s: %v", v, err)
				}
			}
		})
	})
	b.Run("bulk", func(b *testing.B) {
		run(b, func(c *weaver.Cluster) {
			if _, err := c.BulkLoadGraph(verts, edges); err != nil {
				b.Fatal(err)
			}
		})
	})
}
