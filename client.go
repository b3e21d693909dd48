package weaver

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"weaver/internal/gatekeeper"
	"weaver/internal/graph"
	"weaver/internal/nodeprog"
	"weaver/internal/wire"
)

// Client issues transactions and node programs through one gatekeeper,
// resolved per call so clients keep working across gatekeeper failover
// (§4.3). Not safe for concurrent use; create one per goroutine.
type Client struct {
	c   *Cluster
	idx int
}

// gk resolves the client's current gatekeeper.
func (cl *Client) gk() *gatekeeper.Gatekeeper { return cl.c.gkAt(cl.idx) }

// VertexData is the client-visible snapshot of one vertex.
type VertexData struct {
	ID    VertexID
	Props map[string]string
	Edges []EdgeData
}

// EdgeData is the client-visible snapshot of one out-edge.
type EdgeData struct {
	ID    EdgeID
	To    VertexID
	Props map[string]string
}

// Begin starts a read-write transaction (§2.2). Reads observe committed
// state; writes are buffered client-side and submitted as a batch at
// Commit, exactly as in the paper's client protocol (§4.2).
func (cl *Client) Begin() *Tx {
	return &Tx{cl: cl}
}

// RunTx runs fn inside a transaction and commits, retrying automatically
// with jittered exponential backoff on ErrConflict (up to 64 attempts).
// The transaction function must be idempotent — it may run multiple times.
func (cl *Client) RunTx(fn func(*Tx) error) (CommitInfo, error) {
	t0 := time.Now()
	var lastErr error
	backoff := 50 * time.Microsecond
	for attempt := 0; attempt < 64; attempt++ {
		tx := cl.Begin()
		if err := fn(tx); err != nil {
			return CommitInfo{}, err
		}
		info, err := tx.Commit()
		if err == nil {
			cl.c.clientTxDur.Since(t0)
			return info, nil
		}
		if !errors.Is(err, ErrConflict) {
			return CommitInfo{}, err
		}
		cl.c.clientTxRetries.Inc()
		lastErr = err
		time.Sleep(time.Duration(rand.Int63n(int64(backoff))) + backoff/2)
		if backoff < 10*time.Millisecond {
			backoff *= 2
		}
	}
	return CommitInfo{}, fmt.Errorf("weaver: transaction kept conflicting: %w", lastErr)
}

// GetVertex reads the committed state of one vertex directly from the
// backing store, outside any transaction.
//
// Consistency contract: GetVertex is a DURABLE-STATE read, not a snapshot
// read. Commits reach the backing store before they are forwarded to the
// shards, so GetVertex always observes its caller's own committed writes
// immediately (read-your-writes), but it may observe a concurrent
// transaction's effects BEFORE node programs, Lookup, or Traverse at a
// fresh snapshot do — the backing store runs ahead of the ordering
// machinery, and GetVertex carries no timestamp to order it against other
// reads. Use GetNode for a strictly serializable read through the full
// ordering pipeline, or Tx.GetVertex for a read validated at commit.
// TestGetVertexDurableReadContract pins this behavior.
func (cl *Client) GetVertex(id VertexID) (*VertexData, bool, error) {
	rec, _, ok, err := cl.gk().ReadVertex(id)
	if err != nil || !ok {
		return nil, false, err
	}
	return recordToData(rec), true, nil
}

func recordToData(rec *graph.VertexRecord) *VertexData {
	d := &VertexData{ID: rec.ID, Props: rec.Props}
	for eid, er := range rec.Edges {
		d.Edges = append(d.Edges, EdgeData{ID: eid, To: er.To, Props: er.Props})
	}
	return d
}

// RunProgram launches a registered node program at the start vertices and
// returns the raw values its visits returned (§2.3) and the fresh snapshot
// timestamp it read at (At runs it at a past one, §4.5). Decode them with
// nodeprog.Decode or use the typed convenience wrappers below. get_node
// with several start vertices is the batched degree read: one query, one
// nodeprog.NodeData per existing vertex, its NumEdges the out-degree.
func (cl *Client) RunProgram(name string, params []byte, start ...VertexID) ([][]byte, Timestamp, error) {
	return cl.fresh().run(name, params, start...)
}

// Lookup returns every vertex whose indexed property key equals value, as
// a strictly serializable snapshot read over the secondary index
// (Config.Indexes): a fresh snapshot timestamp is minted, every shard
// answers for its partition once it has applied everything at or before
// it, and the merged, sorted result contains exactly the vertices whose
// property was visible at that snapshot — never a phantom from a
// concurrent writer. The timestamp is returned so callers can chain
// further reads at the same snapshot with At. Fails with ErrNoIndex when
// key is not indexed.
func (cl *Client) Lookup(key, value string) ([]VertexID, Timestamp, error) {
	return cl.LookupWhere(0, wire.Eq(key, value)...)
}

// RunProgramWhere launches a registered node program starting at every
// vertex whose indexed property key equals value — "begin at all vertices
// with kind=block" without a hand-carried ID list. The index lookup and
// the program read the graph at ONE fresh snapshot timestamp, so the
// start set and everything the program sees are a single consistent cut.
// An empty match set returns (nil, ts, nil) without launching anything.
func (cl *Client) RunProgramWhere(name string, params []byte, key, value string) ([][]byte, Timestamp, error) {
	return cl.fresh().runWhere(name, params, key, value)
}

// Now returns the client's gatekeeper clock value without advancing it.
// Note that a snapshot at this exact timestamp excludes the operation that
// produced the current clock value — use Snapshot for a handle that
// includes everything committed so far through this gatekeeper.
func (cl *Client) Now() Timestamp { return cl.gk().Now() }

// Snapshot returns a fresh timestamp strictly after every transaction this
// gatekeeper has committed, for use with At: a consistent point-in-time
// handle over the multi-version graph (§4.5). Visibility at a snapshot is
// "strictly happened-before": a version written at exactly the snapshot
// timestamp is excluded.
func (cl *Client) Snapshot() Timestamp { return cl.gk().Snapshot() }

// GetNode runs the get_node node program: a snapshot read of one vertex
// through the full ordering machinery (unlike GetVertex, which reads the
// backing store directly).
func (cl *Client) GetNode(id VertexID) (*nodeprog.NodeData, bool, error) {
	d, ok, _, err := cl.fresh().getNode(id)
	return d, ok, err
}

// GetEdges runs the get_edges program, returning the vertex's live
// out-neighbors.
func (cl *Client) GetEdges(id VertexID) ([]VertexID, error) {
	tos, _, err := cl.fresh().getEdges(id)
	return tos, err
}

// CountEdges runs the count_edges program.
func (cl *Client) CountEdges(id VertexID) (int, error) {
	n, _, err := cl.fresh().countEdges(id)
	return n, err
}

// Traverse runs the Fig 3 BFS: from start, following only edges carrying
// propKey[=propValue] (empty key = all edges), to maxDepth (0 = unbounded).
// Returns the visited vertex IDs, each once, and the snapshot timestamp.
// Unbounded and unfiltered, Traverse(start, "", "", 0) returns the set of
// vertices reachable from start (start included), cycles and all.
func (cl *Client) Traverse(start VertexID, propKey, propValue string, maxDepth int) ([]VertexID, Timestamp, error) {
	return cl.fresh().traverse(start, propKey, propValue, maxDepth)
}

// Reachable runs a BFS reachability query from start to target (§6.3).
func (cl *Client) Reachable(start, target VertexID) (bool, error) {
	params := nodeprog.Encode(nodeprog.ReachParams{Target: target})
	res, _, err := cl.RunProgram("reachability", params, start)
	if err != nil {
		return false, err
	}
	return len(res) > 0, nil
}

// ShortestPath returns the minimum hop count from start to target, with
// found=false when target is unreachable.
func (cl *Client) ShortestPath(start, target VertexID) (dist int, found bool, err error) {
	params := nodeprog.Encode(nodeprog.SPParams{Target: target, Dist: 0})
	res, _, err := cl.RunProgram("shortest_path", params, start)
	if err != nil {
		return 0, false, err
	}
	best := -1
	for _, r := range res {
		var sp nodeprog.SPResult
		if err := nodeprog.Decode(r, &sp); err != nil {
			return 0, false, err
		}
		if best < 0 || sp.Dist < best {
			best = sp.Dist
		}
	}
	if best < 0 {
		return 0, false, nil
	}
	return best, true, nil
}

// ClusteringCoefficient computes the local clustering coefficient of v
// (§6.4, Fig 13): links among v's neighborhood divided by d(d−1).
func (cl *Client) ClusteringCoefficient(v VertexID) (float64, error) {
	res, _, err := cl.RunProgram("clustering_coefficient", nil, v)
	if err != nil {
		return 0, err
	}
	degree, links := 0, 0
	for _, r := range res {
		var cc nodeprog.CCResult
		if err := nodeprog.Decode(r, &cc); err != nil {
			return 0, err
		}
		if cc.IsCenter {
			degree = cc.Degree
		} else {
			links += cc.Links
		}
	}
	if degree < 2 {
		return 0, nil
	}
	return float64(links) / float64(degree*(degree-1)), nil
}

// CommitInfo reports a committed transaction.
type CommitInfo struct {
	// TS is the transaction's refinable timestamp; it doubles as a
	// snapshot handle for historical queries.
	TS Timestamp
	// Edges maps the placeholder IDs returned by Tx.CreateEdge to the
	// permanent edge IDs assigned at commit.
	Edges map[EdgeID]EdgeID
}

// Tx is a read-write transaction: reads record backing-store versions for
// commit-time validation, writes buffer operations submitted as a batch
// (§2.2, §4.2). Zero or more reads, zero or more writes; Commit is a no-op
// for read-only transactions (validation still runs).
type Tx struct {
	cl       *Client
	reads    []gatekeeper.ReadCheck
	ops      []graph.Op
	tmpEdges int
	done     bool
}

// GetVertex reads a vertex inside the transaction. The read is validated at
// commit: if the vertex changed concurrently, Commit fails with ErrConflict.
func (t *Tx) GetVertex(id VertexID) (*VertexData, bool, error) {
	rec, ver, ok, err := t.cl.gk().ReadVertex(id)
	if err != nil {
		return nil, false, err
	}
	t.reads = append(t.reads, gatekeeper.ReadCheck{Key: graph.VertexKey(id), Version: ver})
	if !ok {
		return nil, false, nil
	}
	return recordToData(rec), true, nil
}

// CreateVertex buffers creation of a vertex.
func (t *Tx) CreateVertex(id VertexID) {
	t.ops = append(t.ops, graph.Op{Kind: graph.OpCreateVertex, Vertex: id})
}

// DeleteVertex buffers deletion of a vertex (and all its out-edges).
func (t *Tx) DeleteVertex(id VertexID) {
	t.ops = append(t.ops, graph.Op{Kind: graph.OpDeleteVertex, Vertex: id})
}

// CreateEdge buffers creation of a directed edge from → to and returns a
// placeholder edge ID usable in subsequent operations of this transaction;
// the permanent ID appears in CommitInfo.Edges.
func (t *Tx) CreateEdge(from, to VertexID) EdgeID {
	id := EdgeID(fmt.Sprintf("%s%d", gatekeeper.TempEdgePrefix, t.tmpEdges))
	t.tmpEdges++
	t.ops = append(t.ops, graph.Op{Kind: graph.OpCreateEdge, Vertex: from, Edge: id, To: to})
	return id
}

// DeleteEdge buffers deletion of the edge owned by from.
func (t *Tx) DeleteEdge(from VertexID, edge EdgeID) {
	t.ops = append(t.ops, graph.Op{Kind: graph.OpDeleteEdge, Vertex: from, Edge: edge})
}

// SetProperty buffers setting a vertex property.
func (t *Tx) SetProperty(v VertexID, key, value string) {
	t.ops = append(t.ops, graph.Op{Kind: graph.OpSetVertexProp, Vertex: v, Key: key, Value: value})
}

// DelProperty buffers removing a vertex property.
func (t *Tx) DelProperty(v VertexID, key string) {
	t.ops = append(t.ops, graph.Op{Kind: graph.OpDelVertexProp, Vertex: v, Key: key})
}

// SetEdgeProperty buffers setting a property on an edge owned by from.
func (t *Tx) SetEdgeProperty(from VertexID, edge EdgeID, key, value string) {
	t.ops = append(t.ops, graph.Op{Kind: graph.OpSetEdgeProp, Vertex: from, Edge: edge, Key: key, Value: value})
}

// DelEdgeProperty buffers removing a property from an edge owned by from.
func (t *Tx) DelEdgeProperty(from VertexID, edge EdgeID, key string) {
	t.ops = append(t.ops, graph.Op{Kind: graph.OpDelEdgeProp, Vertex: from, Edge: edge, Key: key})
}

// Commit submits the transaction. On success the buffered operations are
// durable in the backing store and flowing to the shards in timestamp
// order; the returned timestamp is the transaction's position in the
// strictly serializable order.
func (t *Tx) Commit() (CommitInfo, error) {
	if t.done {
		return CommitInfo{}, errors.New("weaver: transaction already finished")
	}
	t.done = true
	res, err := t.cl.gk().CommitTx(t.reads, t.ops)
	if err != nil {
		return CommitInfo{}, err
	}
	return CommitInfo{TS: res.TS, Edges: res.Edges}, nil
}

// Abort discards the transaction.
func (t *Tx) Abort() { t.done = true }
