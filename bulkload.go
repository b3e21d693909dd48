package weaver

// Bulk ingest and checkpointing.
//
// BulkLoad populates an (empty region of an) online cluster at
// sequential-write speed, bypassing the per-transaction commit path
// entirely: vertices stream through the LDG streaming partitioner for
// locality-aware placement (§4.6), per-shard segment builders encode
// vertex records in parallel on a worker pool, and the finished segments
// are installed directly into the transactional backing store and each
// shard's in-memory multi-version graph — the same install path recovery
// uses (§4.3), so everything downstream (node programs, transactions, GC,
// demand paging) sees bulk-loaded state exactly as if it had been
// recovered.
//
// Checkpoint bounds recovery time: it writes a snapshot of the backing
// store and truncates the write-ahead log, so reopening the cluster
// replays snapshot + WAL tail instead of the full commit history.

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"weaver/internal/gatekeeper"
	"weaver/internal/graph"
	"weaver/internal/kvstore"
	"weaver/internal/partition"
	"weaver/internal/plan"
	"weaver/internal/shard"
	"weaver/internal/snapshot"
)

// NewMappedDirectory returns an assignable vertex-placement directory over
// n shards, falling back to hash partitioning for unassigned vertices. Set
// it as Config.Directory to let BulkLoad place vertices with the LDG
// streaming partitioner (and RebalanceLDG migrate them); internal/partition
// is not importable from outside the module, so this is the public way to
// opt in.
func NewMappedDirectory(n int) partition.Directory {
	return partition.NewMapped(partition.NewHash(n))
}

// BulkEdge is one directed edge in a bulk-load edge list.
type BulkEdge struct {
	From, To VertexID
}

// BulkVertex is one explicit vertex in a bulk load, optionally carrying
// initial properties. Properties land in the records the segment builders
// encode, so secondary indexes (Config.Indexes) are populated during the
// same parallel ingest that installs the graph.
type BulkVertex struct {
	ID    VertexID
	Props map[string]string
}

// BulkLoadStats reports one BulkLoad call.
type BulkLoadStats struct {
	// Vertices and Edges are the installed counts (vertices referenced
	// only by edges are created implicitly and included).
	Vertices, Edges int
	// PerShard is the vertex count placed on each shard.
	PerShard []int
	// EdgeCut is the number of cross-shard edges after placement — the
	// partition-quality metric (lower is better; LDG placement beats
	// hash on clustered graphs).
	EdgeCut int
	// Segments counts the record batches the parallel builders encoded
	// and installed (snapshot.DefaultSegmentEntries records each, per
	// shard); SegmentBytes is their store footprint, key plus encoded
	// record bytes.
	Segments     int
	SegmentBytes int64
	// LDG reports whether streaming LDG placement was used (requires an
	// assignable directory; see Config.Directory and partition.Mapped).
	LDG bool
	// Checkpoint holds the automatic post-load checkpoint on a durable
	// cluster (nil when the cluster has no WAL).
	Checkpoint *kvstore.CheckpointStats
	// Elapsed is the wall-clock duration of the whole load.
	Elapsed time.Duration
}

// BulkLoad installs a graph wholesale, bypassing the transactional commit
// path — the fast way to populate a cluster (the paper's evaluation runs
// on bulk-loaded graphs of up to 1.47B edges, §6).
//
// Vertices appearing only in edges are created implicitly; explicit
// vertices may be passed for isolated ones. Every loaded vertex must be
// new: loading over an existing vertex is an error (ErrInvalid).
//
// The load is stamped with one fresh timestamp: gatekeepers are paused,
// outstanding applies and node programs drain, every record becomes
// visible at the stamp, and all gatekeeper clocks observe it before
// traffic resumes — so every future transaction orders after the load
// without timeline-oracle involvement.
//
// On a durable cluster (Config.WALPath) the load finishes with an
// automatic Checkpoint, making the ingest crash-safe without logging the
// records through the WAL one by one.
func (c *Cluster) BulkLoad(vertices []VertexID, edges []BulkEdge) (BulkLoadStats, error) {
	vs := make([]BulkVertex, len(vertices))
	for i, v := range vertices {
		vs[i] = BulkVertex{ID: v}
	}
	return c.BulkLoadGraph(vs, edges)
}

// BulkLoadGraph is BulkLoad for vertices that carry initial properties
// (BulkVertex): records are built with the properties, so the per-shard
// secondary indexes are populated from the same segments that install the
// graph — no per-property transactions needed to make a bulk-loaded graph
// queryable through Lookup.
func (c *Cluster) BulkLoadGraph(vertices []BulkVertex, edges []BulkEdge) (BulkLoadStats, error) {
	start := time.Now()
	stats := BulkLoadStats{PerShard: make([]int, c.cfg.Shards)}
	if c.closed.Load() {
		return stats, errors.New("weaver: cluster closed")
	}

	// Vertex universe in first-appearance order, with undirected
	// adjacency for the streaming partitioner.
	index := make(map[VertexID]int, len(vertices)+len(edges))
	var order []VertexID
	add := func(v VertexID) int {
		if i, ok := index[v]; ok {
			return i
		}
		i := len(order)
		index[v] = i
		order = append(order, v)
		return i
	}
	props := make(map[int]map[string]string)
	for _, bv := range vertices {
		i := add(bv.ID)
		if len(bv.Props) > 0 {
			props[i] = bv.Props
		}
	}
	edgeIdx := make([][2]int32, len(edges))
	for i, e := range edges {
		edgeIdx[i] = [2]int32{int32(add(e.From)), int32(add(e.To))}
	}
	if len(order) == 0 {
		return stats, nil
	}
	// Undirected adjacency for the streaming partitioner, presized in one
	// degree-counting pass and packed into a single backing array.
	deg := make([]int32, len(order))
	outDeg := make([]int32, len(order))
	for _, e := range edgeIdx {
		outDeg[e[0]]++
		if e[0] != e[1] {
			deg[e[0]]++
			deg[e[1]]++
		}
	}
	nbrs := make([][]int32, len(order))
	flat := make([]int32, 0, 2*len(edges))
	for i, d := range deg {
		nbrs[i] = flat[len(flat) : len(flat) : len(flat)+int(d)]
		flat = flat[:len(flat)+int(d)]
	}
	for _, e := range edgeIdx {
		if e[0] != e[1] {
			nbrs[e[0]] = append(nbrs[e[0]], e[1])
			nbrs[e[1]] = append(nbrs[e[1]], e[0])
		}
	}
	// Freeze the cluster: no new transactions or node programs while the
	// segments install, and everything in flight drains first.
	err := c.fenced(func(gks []*gatekeeper.Gatekeeper, shards []*shard.Shard) error {
		// Existence check behind the fence: with commits paused and applies
		// drained, no concurrent transaction can slip a vertex in between the
		// check and the install.
		for _, v := range order {
			if _, _, exists := c.kv.GetVersioned(graph.VertexKey(v)); exists {
				return fmt.Errorf("%w: bulk load target vertex %q already exists", ErrInvalid, v)
			}
		}

		// One timestamp stamps the whole load.
		ts := gks[0].Snapshot()

		// Placement: streaming LDG when the directory is assignable,
		// otherwise whatever the directory already says (hash by default).
		shardOf := make([]int, len(order))
		if md, ok := c.dir.(*partition.Mapped); ok {
			ldg := partition.NewLDG(c.cfg.Shards, len(order), 0.1)
			scratch := make([]VertexID, 0, 64)
			for i, v := range order {
				scratch = scratch[:0]
				for _, n := range nbrs[i] {
					scratch = append(scratch, order[n])
				}
				shardOf[i] = ldg.Place(v, scratch)
			}
			for i, v := range order {
				md.Assign(v, shardOf[i])
			}
			stats.LDG = true
		} else {
			for i, v := range order {
				shardOf[i] = c.dir.Lookup(v)
			}
		}
		for _, s := range shardOf {
			stats.PerShard[s]++
		}

		// Build records: each vertex with all its out-edges (§3.2's partition
		// unit), edge IDs minted from the load timestamp. Maps stay nil when
		// empty and are presized otherwise — at millions of edges the
		// allocation rate here is the load's hot spot.
		recs := make([]*graph.VertexRecord, len(order))
		for i, v := range order {
			recs[i] = &graph.VertexRecord{ID: v, Shard: shardOf[i], LastTS: ts}
			if outDeg[i] > 0 {
				recs[i].Edges = make(map[graph.EdgeID]graph.EdgeRecord, outDeg[i])
			}
			if p := props[i]; len(p) > 0 {
				// Copied: records outlive the call (shard graphs and the
				// demand pager read them), and callers keep their maps.
				recs[i].Props = make(map[string]string, len(p))
				for k, val := range p {
					recs[i].Props[k] = val
				}
			}
		}
		eidPrefix := graph.EdgeIDPrefix(ts.ID())
		for ei, e := range edgeIdx {
			eid := graph.EdgeID(eidPrefix + strconv.Itoa(ei))
			recs[e[0]].Edges[eid] = graph.EdgeRecord{To: order[e[1]]}
			if shardOf[e[0]] != shardOf[e[1]] {
				stats.EdgeCut++
			}
		}

		// Fan out per-shard segment builders on the worker pool: encoding the
		// records dominates load cost, so it runs in parallel; each
		// finished segment installs straight into the backing store.
		const segEntries = snapshot.DefaultSegmentEntries
		perShard := make([][]*graph.VertexRecord, c.cfg.Shards)
		for i, rec := range recs {
			perShard[shardOf[i]] = append(perShard[shardOf[i]], rec)
		}
		jobs := make(chan []*graph.VertexRecord)
		results := make(chan []kvstore.KV)
		var wg sync.WaitGroup
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for batch := range jobs {
					kvs := make([]kvstore.KV, len(batch))
					for i, rec := range batch {
						kvs[i] = kvstore.KV{Key: graph.VertexKey(rec.ID), Value: graph.EncodeRecord(rec)}
					}
					results <- kvs
				}
			}()
		}
		go func() {
			for s := range perShard {
				for lo := 0; lo < len(perShard[s]); lo += segEntries {
					hi := min(lo+segEntries, len(perShard[s]))
					jobs <- perShard[s][lo:hi]
				}
			}
			close(jobs)
			wg.Wait()
			close(results)
		}()
		for kvs := range results {
			c.store.BulkPut(kvs)
			stats.Segments++
			for _, kv := range kvs {
				stats.SegmentBytes += int64(len(kv.Key) + len(kv.Value))
			}
		}

		// Install each shard's partition into its in-memory graph — the
		// recovery path (§4.3), batched.
		var shardWG sync.WaitGroup
		for _, sh := range shards {
			shardWG.Add(1)
			go func(sh *shard.Shard) {
				defer shardWG.Done()
				sh.Install(perShard[sh.ID()])
			}(sh)
		}
		shardWG.Wait()

		// Marker catalog for the query planner: every indexed property value
		// the load placed enters the (key, value, shard) catalog behind the
		// fence, so no post-load query can plan against a catalog that would
		// prune a freshly loaded shard. Markers go through the transactional
		// store (not BulkPut), so the automatic checkpoint below covers them on
		// a durable cluster.
		if len(c.cfg.Indexes) > 0 {
			markers := make(map[string]struct{})
			for i := range order {
				p := props[i]
				if len(p) == 0 {
					continue
				}
				for _, spec := range c.cfg.Indexes {
					if v, ok := p[spec.Key]; ok {
						markers[plan.MarkerKey(spec.Key, v, shardOf[i])] = struct{}{}
					}
				}
			}
			if len(markers) > 0 {
				keys := make([]string, 0, len(markers))
				for k := range markers {
					keys = append(keys, k)
				}
				if err := gks[0].PublishMarkers(keys); err != nil {
					return fmt.Errorf("weaver: bulk load markers: %w", err)
				}
			}
		}

		// Frontier install: every gatekeeper's clock observes the load
		// timestamp, so every post-load timestamp in the cluster is
		// vector-clock-after it.
		for _, gk := range gks {
			gk.ObserveTimestamp(ts)
		}

		stats.Vertices = len(order)
		stats.Edges = len(edges)

		// Durable cluster: one checkpoint makes the whole ingest crash-safe
		// (BulkPut deliberately skipped the per-record WAL path).
		if c.cfg.WALPath != "" {
			st, err := c.store.Checkpoint()
			if err != nil {
				return fmt.Errorf("weaver: bulk load checkpoint: %w", err)
			}
			stats.Checkpoint = &st
		}
		return nil
	})
	stats.Elapsed = time.Since(start)
	return stats, err
}

// Checkpoint writes a snapshot of the backing store and truncates the
// write-ahead log (Config.WALPath), so the next Open recovers from
// snapshot + WAL tail instead of replaying the full history. The cluster
// pauses transaction intake for the duration; committed state is never at
// risk — a crash mid-checkpoint leaves the previous snapshot and its
// complete WAL authoritative (see kvstore.Store.Checkpoint).
func (c *Cluster) Checkpoint() (kvstore.CheckpointStats, error) {
	if c.closed.Load() {
		return kvstore.CheckpointStats{}, errors.New("weaver: cluster closed")
	}
	_, resume := c.pauseIntake()
	defer resume()
	return c.store.Checkpoint()
}

// RecoveryStats reports how the durable backing store rebuilt its state
// when this cluster opened: which checkpoint snapshot it restored and how
// many WAL records it replayed on top. ok is false when the backing store
// is not durable.
func (c *Cluster) RecoveryStats() (st kvstore.RecoveryStats, ok bool) {
	return c.store.Recovery(), c.cfg.WALPath != ""
}
