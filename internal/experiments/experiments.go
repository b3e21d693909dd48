// Package experiments implements the paper's evaluation (§6) only: one
// function per figure (7–14), with the Titan/GraphLab/Blockchain.info
// baselines they compare against. cmd/weaver-bench is their one front-end
// and the TestFig*Shape suite keeps them alive in tier-1; numbers about
// this system's own speed are rows of `go run ./benchmark`, not
// experiments here. Each function builds the systems it compares, loads
// the workload, runs the measurement, and returns structured rows; String
// methods render paper-style tables.
//
// Scales are configurable: Default() keeps every experiment in seconds,
// while cmd/weaver-bench raises them toward the paper's setup. Absolute
// numbers differ from the paper (their testbed was a 44-machine cluster;
// ours is one process), but each experiment preserves the paper's
// comparison structure: who wins, by what rough factor, and which way the
// curves bend.
package experiments

import (
	"fmt"
	"time"

	"weaver"
	"weaver/internal/baseline/graphlab"
	"weaver/internal/baseline/titan"
	"weaver/internal/graph"
	"weaver/internal/workload"
)

// Options sets experiment scales and baseline cost models.
type Options struct {
	// Social graph (Figs 9-10): vertices and out-degree.
	SocialV, SocialM int
	// Blockchain (Figs 7-8): chain length.
	Blocks int
	// Random digraph (Figs 11-13): vertices and edges.
	RandV, RandE int
	// Clients is the concurrent client count for throughput runs.
	Clients int
	// Duration is the measured window of each throughput run.
	Duration time.Duration
	// Queries bounds per-figure query counts (latency experiments).
	Queries int
	// Gatekeepers/Shards for the Weaver cluster in non-sweep figures.
	Gatekeepers, Shards int
	// Tau is the vector-clock announce period τ.
	Tau time.Duration
	// Nop is the NOP period.
	Nop time.Duration
	// Titan models the baseline's distributed-locking costs (§6.2).
	Titan titan.Config
	// GraphLab models the baseline's coordination costs (§6.3).
	GraphLab graphlab.Config
	// BCInfoWAN simulates Blockchain.info's WAN round trip (§6.1 notes
	// ~13ms); zero compares pure engine cost.
	BCInfoWAN time.Duration
	// BCInfoRowCost models the baseline's disk-resident MySQL join cost
	// per transaction row (§6.1: the paper measures 5-8ms per tx; their
	// 900GB dataset lived on spinning disks).
	BCInfoRowCost time.Duration
	// Seed makes workloads deterministic.
	Seed int64
}

// Default returns bench-test-sized options (each experiment within a few
// seconds on a laptop).
func Default() Options {
	return Options{
		SocialV: 4000, SocialM: 8,
		Blocks: 220,
		RandV:  2500, RandE: 8000,
		Clients:     16,
		Duration:    400 * time.Millisecond,
		Queries:     60,
		Gatekeepers: 2, Shards: 4,
		Tau: 500 * time.Microsecond,
		Nop: 250 * time.Microsecond,
		Titan: titan.Config{
			Partitions: 4,
			// Calibrated to the era's Cassandra quorum costs the
			// paper measured through Titan v0.4.2 (§6.2, Fig 10:
			// Titan reads cluster around 10-30ms): each op locks
			// every touched object and persists the locks.
			LockDelay: 2 * time.Millisecond,
			NetDelay:  100 * time.Microsecond,
		},
		GraphLab: graphlab.Config{
			Workers: 8,
			// Cluster-wide coordination costs of GraphLab v2.2's
			// engines on the paper's 14-machine cluster (§6.3): a
			// global superstep barrier for the sync engine — all
			// machines synchronize, stragglers included; the
			// paper's sync runs imply ~hundreds of ms per superstep
			// at their scale, of which 15ms models the pure
			// synchronization share at ours — and a distributed
			// lock acquisition per vertex update for the async
			// engine's edge consistency.
			BarrierDelay: 15 * time.Millisecond,
			LockDelay:    200 * time.Microsecond,
		},
		// The paper measures Blockchain.info's MySQL at 5-8ms per
		// transaction per block; 300µs preserves the relative marginal
		// cost against our (leaner than their C++) node programs.
		BCInfoRowCost: 300 * time.Microsecond,
		Seed:          1,
	}
}

// weaverConfig builds the cluster config for the options. The directory is
// assignable (partition.Mapped over hash) so bulk loads place vertices with
// the LDG streaming partitioner; vertices loaded transactionally still hash.
func (o Options) weaverConfig(gks, shards int) weaver.Config {
	return weaver.Config{
		Gatekeepers:    gks,
		Shards:         shards,
		AnnouncePeriod: o.Tau,
		NopPeriod:      o.Nop,
		ProgTimeout:    60 * time.Second,
		Directory:      weaver.NewMappedDirectory(shards),
	}
}

// OpenWeaver opens a Weaver cluster per the options.
func (o Options) OpenWeaver(gks, shards int) (*weaver.Cluster, error) {
	return weaver.Open(o.weaverConfig(gks, shards))
}

// LoadSocialWeaver loads a generated graph into Weaver through the bulk
// ingest path (Cluster.BulkLoad): LDG streaming placement, parallel
// per-shard segment builders, direct install — how the paper's evaluation
// graphs (up to 1.47B edges, §6) would realistically be loaded.
func LoadSocialWeaver(c *weaver.Cluster, g *workload.Graph) error {
	edges := make([]weaver.BulkEdge, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = weaver.BulkEdge{From: e.From, To: e.To}
	}
	if _, err := c.BulkLoad(g.Vertices, edges); err != nil {
		return fmt.Errorf("bulk load: %w", err)
	}
	return nil
}

// LoadSocialWeaverEntity loads the graph through the transactional commit
// path at natural application granularity: one transaction per vertex,
// creating it and all its out-edges (targets precede sources in the
// generator's stream order, exactly like one-transaction-per-block in
// LoadBlockchainWeaver). This is "the transactional load path" baseline of
// BenchmarkBulkLoad — what loading actually costs an application that has
// no bulk path.
func LoadSocialWeaverEntity(c *weaver.Cluster, g *workload.Graph) error {
	cl := c.Client()
	for _, v := range g.Vertices {
		if _, err := cl.RunTx(func(tx *weaver.Tx) error {
			tx.CreateVertex(v)
			for _, to := range g.Out[v] {
				tx.CreateEdge(v, to)
			}
			return nil
		}); err != nil {
			return fmt.Errorf("load entity %s: %w", v, err)
		}
	}
	return nil
}

// LoadSocialWeaverTx loads the same graph through the transactional commit
// path, batching operations into chunky transactions (one chunk of
// vertices, then all out-edges of a group of vertices per transaction, so
// each touched vertex record is encoded once per transaction) — the
// hand-tuned batch loader this repo used before bulk ingest existed.
func LoadSocialWeaverTx(c *weaver.Cluster, g *workload.Graph) error {
	cl := c.Client()
	const vchunk = 400
	for lo := 0; lo < len(g.Vertices); lo += vchunk {
		hi := lo + vchunk
		if hi > len(g.Vertices) {
			hi = len(g.Vertices)
		}
		if _, err := cl.RunTx(func(tx *weaver.Tx) error {
			for _, v := range g.Vertices[lo:hi] {
				tx.CreateVertex(v)
			}
			return nil
		}); err != nil {
			return fmt.Errorf("load vertices [%d,%d): %w", lo, hi, err)
		}
	}
	// Edges, grouped by source vertex, several sources per transaction.
	const echunk = 2000
	pending := 0
	tx := cl.Begin()
	for lo := 0; lo < len(g.Vertices); lo++ {
		v := g.Vertices[lo]
		outs := g.Out[v]
		for _, to := range outs {
			tx.CreateEdge(v, to)
		}
		pending += len(outs)
		if pending >= echunk || lo == len(g.Vertices)-1 {
			if _, err := tx.Commit(); err != nil {
				return fmt.Errorf("load edges at %s: %w", v, err)
			}
			tx = cl.Begin()
			pending = 0
		}
	}
	tx.Abort()
	return nil
}

// LoadSocialTitan bulk-loads the same graph into the Titan baseline.
func LoadSocialTitan(s *titan.Store, g *workload.Graph) {
	for _, v := range g.Vertices {
		s.LoadVertex(v, nil)
	}
	for _, e := range g.Edges {
		s.LoadEdge(e.From, e.To)
	}
}

// LoadRandomGraphLab builds the static GraphLab input graph.
func LoadRandomGraphLab(g *workload.Graph) *graphlab.Graph {
	gg := graphlab.NewGraph()
	for _, v := range g.Vertices {
		gg.AddVertex(v)
	}
	for _, e := range g.Edges {
		gg.AddEdge(e.From, e.To)
	}
	return gg
}

// LoadBlockchainWeaver loads the synthetic chain into Weaver as CoinGraph
// does (§5.2): one transaction per block, creating the block vertex, its
// transaction vertices, input edges to spent transactions, output edges to
// addresses (created on first use), and the prev-link.
func LoadBlockchainWeaver(c *weaver.Cluster, bc *workload.Blockchain) error {
	cl := c.Client()
	seenAddr := make(map[graph.VertexID]bool, bc.Txs*2)
	var loadErr error
	bc.Generate(func(bv workload.BlockVertex) {
		if loadErr != nil {
			return
		}
		// Addresses first used in this block (computed outside the
		// transaction closure, which must be idempotent under retry).
		var fresh []graph.VertexID
		for _, tv := range bv.Txs {
			for _, out := range tv.Outputs {
				if !seenAddr[out] {
					seenAddr[out] = true
					fresh = append(fresh, out)
				}
			}
		}
		_, err := cl.RunTx(func(tx *weaver.Tx) error {
			tx.CreateVertex(bv.Block)
			if bv.Prev != "" {
				e := tx.CreateEdge(bv.Block, bv.Prev)
				tx.SetEdgeProperty(bv.Block, e, "kind", "prev")
			}
			for _, a := range fresh {
				tx.CreateVertex(a)
			}
			for _, tv := range bv.Txs {
				tx.CreateVertex(tv.Tx)
				be := tx.CreateEdge(bv.Block, tv.Tx)
				tx.SetEdgeProperty(bv.Block, be, "kind", "tx")
				for _, in := range tv.Inputs {
					ie := tx.CreateEdge(tv.Tx, in)
					tx.SetEdgeProperty(tv.Tx, ie, "kind", "in")
				}
				for _, out := range tv.Outputs {
					oe := tx.CreateEdge(tv.Tx, out)
					tx.SetEdgeProperty(tv.Tx, oe, "kind", "out")
				}
			}
			return nil
		})
		if err != nil {
			loadErr = fmt.Errorf("load block %s: %w", bv.Block, err)
		}
	})
	return loadErr
}
