package weaver

// Time-travel reads (§4.5). Because every write is multi-versioned under a
// refinable timestamp, any read-only query — including node programs — can
// run against the graph as it stood at a past timestamp while writes
// proceed untouched. Three pieces expose it:
//
//   - Cluster.SnapshotTS mints a PINNED snapshot timestamp: the GC
//     watermark cannot advance past it until Close, so reads at it stay
//     answerable indefinitely, regardless of Config.HistoryRetention.
//   - Client.At wraps any timestamp from this cluster (a commit's TS, a
//     Client.Snapshot, a pinned snapshot) in a ReadClient whose queries
//     all execute at that timestamp (the one read path, read.go).
//   - Config.HistoryRetention keeps versions readable for a wall-clock
//     window even without a pin; reads behind the watermark fail with
//     ErrStaleSnapshot, never wrong data.
//
// Migration moves a vertex's full version history with it (see
// migrate.go), so pinned reads keep answering across rebalancing. Shard
// recovery and demand paging, by contrast, truncate resident history to
// the last committed record; reads older than a crash-recovery or a
// page-out/in cycle of the touched vertices are best-effort.

import (
	"errors"
	"sync"

	"weaver/internal/core"
	"weaver/internal/gatekeeper"
	"weaver/internal/nodeprog"
	"weaver/internal/wire"
)

// ErrStaleSnapshot is returned by historical reads whose timestamp is
// older than the history a shard holds: behind the GC watermark (pins and
// Config.HistoryRetention hold it back), or below a vertex record a shard
// read back from the backing store after a restart or demand paging.
// Shards refuse rather than return wrong data. Match with errors.Is.
var ErrStaleSnapshot = gatekeeper.ErrStaleSnapshot

// Snapshot is a pinned point-in-time handle over the graph: a refinable
// timestamp strictly after every transaction committed through its minting
// gatekeeper, held against garbage collection until Close. Safe for
// concurrent use.
type Snapshot struct {
	c    *Cluster
	gk   int
	ts   Timestamp
	once sync.Once
}

// SnapshotTS mints and pins a snapshot timestamp (§4.5): any number of
// historical queries, concurrent with ongoing writes and with each other,
// can read the graph as of this timestamp via Client.At. The timestamp is
// STABLE cluster-wide, in both directions: every gatekeeper's clock is
// folded into the minting one first — so any transaction whose commit
// completed before this call, on any gatekeeper, orders before the
// snapshot — and the pinned timestamp is folded back into every other
// gatekeeper before returning — so any transaction whose commit begins
// after this call orders after it. Only commits racing the call itself
// remain timestamp-concurrent with the snapshot (visible under the §4.1
// write-before-read rule). The pin holds the cluster-wide GC watermark at
// the snapshot until Close releases it — long-lived snapshots therefore
// accumulate version history; close them when done.
func (c *Cluster) SnapshotTS() (*Snapshot, error) {
	if c.closed.Load() {
		return nil, errors.New("weaver: cluster closed")
	}
	n := c.nextClient.Add(1) - 1
	gk := int(n % uint64(c.cfg.Gatekeepers))
	minter := c.gkAt(gk)
	for i := 0; i < c.cfg.Gatekeepers; i++ {
		if i != gk {
			minter.ObserveTimestamp(c.gkAt(i).Now())
		}
	}
	ts := minter.PinSnapshot()
	for i := 0; i < c.cfg.Gatekeepers; i++ {
		if i != gk {
			c.gkAt(i).ObserveTimestamp(ts)
		}
	}
	return &Snapshot{c: c, gk: gk, ts: ts}, nil
}

// issued is the pointwise maximum of every gatekeeper's clock: every
// timestamp the cluster has issued is pointwise at or below it.
func (c *Cluster) issued() Timestamp {
	now := make([]Timestamp, c.cfg.Gatekeepers)
	for i := range now {
		now[i] = c.gkAt(i).Now()
	}
	return core.PointwiseMax(now...)
}

// TS returns the pinned timestamp, usable with Client.At.
func (s *Snapshot) TS() Timestamp { return s.ts }

// Close releases the pin, letting the GC watermark advance past the
// snapshot. Idempotent. Reads at the timestamp may still succeed within
// Config.HistoryRetention, and fail with ErrStaleSnapshot after.
func (s *Snapshot) Close() error {
	s.once.Do(func() { s.c.gkAt(s.gk).Unpin(s.ts) })
	return nil
}

// ReadClient runs read-only queries against the graph state as of one
// fixed timestamp: every method is the read of the same name on Client,
// evaluated at that timestamp instead of a fresh one (read.go); at the zero
// timestamp every read fails. Obtain one from Client.At. Not safe for
// concurrent use; create one per goroutine (they are cheap — the snapshot
// timestamp itself can be shared freely).
type ReadClient struct {
	rd reader
}

// At returns a client whose reads and node programs all execute against
// the graph as of ts — a timestamp previously obtained from this cluster:
// a commit's CommitInfo.TS, Client.Snapshot, or a pinned
// Cluster.SnapshotTS. Queries fail with ErrStaleSnapshot once ts falls
// behind the GC watermark (impossible while pinned, guaranteed not to
// happen within Config.HistoryRetention of minting), and at once when ts is
// ahead of every gatekeeper's clock, so not issued by this cluster.
func (cl *Client) At(ts Timestamp) *ReadClient {
	return &ReadClient{rd: reader{cl: cl, ts: ts, fixed: true}}
}

// TS returns the timestamp this client reads at.
func (r *ReadClient) TS() Timestamp { return r.rd.ts }

// RunProgram launches a registered node program reading the graph as of
// the fixed timestamp (§4.5).
func (r *ReadClient) RunProgram(name string, params []byte, start ...VertexID) ([][]byte, error) {
	res, _, err := r.rd.run(name, params, start...)
	return res, err
}

// GetNode reads one vertex as of the fixed timestamp through the full
// ordering machinery.
func (r *ReadClient) GetNode(id VertexID) (*nodeprog.NodeData, bool, error) {
	d, ok, _, err := r.rd.getNode(id)
	return d, ok, err
}

// GetEdges returns the vertex's out-neighbors as of the fixed timestamp.
func (r *ReadClient) GetEdges(id VertexID) ([]VertexID, error) {
	tos, _, err := r.rd.getEdges(id)
	return tos, err
}

// CountEdges returns the vertex's live out-degree as of the fixed
// timestamp.
func (r *ReadClient) CountEdges(id VertexID) (int, error) {
	n, _, err := r.rd.countEdges(id)
	return n, err
}

// Lookup returns every vertex whose indexed property key equaled value as
// of the fixed timestamp. The result is exactly what Client.Lookup would
// have returned at that moment: postings are versioned like graph objects,
// survive migration, and are held against GC by pins and
// Config.HistoryRetention; behind the watermark the query fails with
// ErrStaleSnapshot, never wrong data.
func (r *ReadClient) Lookup(key, value string) ([]VertexID, error) {
	return r.LookupWhere(0, wire.Eq(key, value)...)
}

// LookupRange is Lookup over the value interval [lo, hi] (lexicographic,
// inclusive; empty lo/hi = unbounded) as of the fixed timestamp.
func (r *ReadClient) LookupRange(key, lo, hi string) ([]VertexID, error) {
	return r.LookupWhere(0, wire.Between(key, lo, hi)...)
}

// RunProgramWhere launches a node program starting at every vertex whose
// indexed property key equaled value as of the fixed timestamp; the lookup
// and the program read the same snapshot.
func (r *ReadClient) RunProgramWhere(name string, params []byte, key, value string) ([][]byte, error) {
	res, _, err := r.rd.runWhere(name, params, key, value)
	return res, err
}

// Traverse runs the Fig 3 BFS over the graph as of the fixed timestamp.
func (r *ReadClient) Traverse(start VertexID, propKey, propValue string, maxDepth int) ([]VertexID, error) {
	out, _, err := r.rd.traverse(start, propKey, propValue, maxDepth)
	return out, err
}
