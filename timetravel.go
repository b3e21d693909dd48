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
//     all execute at that timestamp.
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

	"weaver/internal/gatekeeper"
	"weaver/internal/nodeprog"
	"weaver/internal/wire"
)

// ErrStaleSnapshot is returned by historical reads whose timestamp has
// fallen behind the GC watermark: the versions the query would need may
// already be collected, so shards refuse to answer rather than return
// wrong data. Reads within Config.HistoryRetention and reads at pinned
// snapshots (Cluster.SnapshotTS) never hit this. Match with errors.Is.
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
// fixed timestamp. Obtain one from Client.At. Like Client, a ReadClient is
// not safe for concurrent use; create one per goroutine (they are cheap —
// the snapshot timestamp itself can be shared freely).
type ReadClient struct {
	cl *Client
	ts Timestamp
}

// At returns a client whose reads and node programs all execute against
// the graph as of ts — a timestamp previously obtained from this cluster:
// a commit's CommitInfo.TS, Client.Snapshot, or a pinned
// Cluster.SnapshotTS. Queries fail with ErrStaleSnapshot once ts falls
// behind the GC watermark (impossible while pinned, guaranteed not to
// happen within Config.HistoryRetention of minting).
func (cl *Client) At(ts Timestamp) *ReadClient {
	return &ReadClient{cl: cl, ts: ts}
}

// TS returns the timestamp this client reads at.
func (r *ReadClient) TS() Timestamp { return r.ts }

// RunProgram launches a registered node program reading the graph as of
// the pinned timestamp (§4.5); the historical counterpart of
// Client.RunProgram.
func (r *ReadClient) RunProgram(name string, params []byte, start ...VertexID) ([][]byte, error) {
	return r.cl.gk().RunProgramAt(r.ts, name, params, start)
}

// GetNode reads one vertex as of the pinned timestamp through the full
// ordering machinery.
func (r *ReadClient) GetNode(id VertexID) (*nodeprog.NodeData, bool, error) {
	res, err := r.RunProgram("get_node", nil, id)
	if err != nil || len(res) == 0 {
		return nil, false, err
	}
	return decodeNodeData(res[0])
}

// GetEdges returns the vertex's out-neighbors as of the pinned timestamp.
func (r *ReadClient) GetEdges(id VertexID) ([]VertexID, error) {
	res, err := r.RunProgram("get_edges", nil, id)
	if err != nil || len(res) == 0 {
		return nil, err
	}
	d, ok, err := decodeNodeData(res[0])
	if err != nil || !ok {
		return nil, err
	}
	return d.EdgesTo, nil
}

// CountEdges returns the vertex's live out-degree as of the pinned
// timestamp.
func (r *ReadClient) CountEdges(id VertexID) (int, error) {
	res, err := r.RunProgram("count_edges", nil, id)
	if err != nil || len(res) == 0 {
		return 0, err
	}
	var n int
	err = nodeprog.Decode(res[0], &n)
	return n, err
}

// errZeroReadTS rejects historical reads at the zero timestamp: to the
// gatekeeper a zero read timestamp means "mint a fresh snapshot", so
// passing an uninitialized timestamp through would silently return
// CURRENT data to a caller who asked for the past.
var errZeroReadTS = errors.New("weaver: historical read at zero timestamp")

// Lookup returns every vertex whose indexed property key equaled value as
// of the pinned timestamp — the historical counterpart of Client.Lookup.
// The result is exactly what Lookup would have returned at that moment:
// postings are versioned like graph objects, survive migration, and are
// held against GC by pins and Config.HistoryRetention; behind the
// watermark the query fails with ErrStaleSnapshot, never wrong data.
func (r *ReadClient) Lookup(key, value string) ([]VertexID, error) {
	return r.LookupWhere(0, wire.Eq(key, value)...)
}

// LookupRange is Lookup over the value interval [lo, hi] (lexicographic,
// inclusive; empty lo/hi = unbounded) as of the pinned timestamp.
func (r *ReadClient) LookupRange(key, lo, hi string) ([]VertexID, error) {
	return r.LookupWhere(0, wire.Between(key, lo, hi)...)
}

// RunProgramWhere launches a node program starting at every vertex whose
// indexed property key equaled value as of the pinned timestamp; the
// lookup and the program read the same snapshot.
func (r *ReadClient) RunProgramWhere(name string, params []byte, key, value string) ([][]byte, error) {
	start, err := r.Lookup(key, value)
	if err != nil || len(start) == 0 {
		return nil, err
	}
	return r.RunProgram(name, params, start...)
}

// Traverse runs the Fig 3 BFS over the graph as of the pinned timestamp.
func (r *ReadClient) Traverse(start VertexID, propKey, propValue string, maxDepth int) ([]VertexID, error) {
	params := nodeprog.Encode(nodeprog.TraverseParams{PropKey: propKey, PropValue: propValue, MaxDepth: maxDepth})
	res, err := r.RunProgram("traverse", params, start)
	if err != nil {
		return nil, err
	}
	return decodeVertexList(res)
}

// decodeNodeData decodes one get_node/get_edges result.
func decodeNodeData(raw []byte) (*nodeprog.NodeData, bool, error) {
	var d nodeprog.NodeData
	if err := nodeprog.Decode(raw, &d); err != nil {
		return nil, false, err
	}
	return &d, true, nil
}

// decodeVertexList decodes per-visit VertexID results.
func decodeVertexList(res [][]byte) ([]VertexID, error) {
	out := make([]VertexID, 0, len(res))
	for _, r := range res {
		var v VertexID
		if err := nodeprog.Decode(r, &v); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
