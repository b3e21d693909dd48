package gatekeeper

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/kvstore"
	"weaver/internal/obs"
	"weaver/internal/oracle"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// TempEdgePrefix marks client-side placeholder edge IDs: a client creating
// an edge inside a transaction names it "~0", "~1", … and the gatekeeper
// rewrites them to globally unique IDs derived from the commit timestamp.
const TempEdgePrefix = "~"

// ReadVertex fetches the current committed record of a vertex from the
// backing store, with the version to carry in a ReadCheck at commit.
// Missing or deleted vertices return ok=false; the version is meaningful
// either way and must still be validated at commit. A store that does not
// answer is an error, never a missing vertex.
func (g *Gatekeeper) ReadVertex(v graph.VertexID) (rec *graph.VertexRecord, version uint64, ok bool, err error) {
	data, version, found, err := g.kv.GetVersioned(graph.VertexKey(v))
	if err != nil || !found {
		return nil, version, false, err
	}
	rec, err = graph.DecodeRecord(data)
	if err != nil {
		return nil, version, false, err
	}
	if rec.Deleted {
		return nil, version, false, nil
	}
	return rec, version, true, nil
}

// CommitResult reports a successful commit: the transaction's refinable
// timestamp and the mapping from placeholder edge IDs to assigned ones.
type CommitResult struct {
	TS    core.Timestamp
	Edges map[graph.EdgeID]graph.EdgeID
}

// CommitTx executes one read-write transaction (§4.2):
//
//  1. stamp a refinable timestamp;
//  2. execute on the backing store: validate the client's reads, validate
//     and apply the buffered write operations to the vertex records, and
//     enforce that the new timestamp orders after each touched vertex's
//     last-update timestamp (registering the order with the timeline
//     oracle when the pair is concurrent; retrying with a fresh timestamp
//     when ordering is impossible);
//  3. on successful backing-store commit, forward the per-shard write-sets
//     over FIFO channels; shards apply them without coordination.
//
// ErrConflict means a concurrent transaction invalidated this one: the
// caller re-runs it from its reads. Errors wrapping ErrInvalid are semantic
// (e.g. create of an existing vertex) and will not succeed on retry.
func (g *Gatekeeper) CommitTx(reads []ReadCheck, ops []graph.Op) (CommitResult, error) {
	t0 := time.Now()
	// Admission control BEFORE taking the pause lock (a throttled commit
	// must not block a migration batch's Pause): if the shards are more
	// than maxApplyLag write-sets behind, wait for them to catch up.
	g.waitApplyLag()
	if err := g.admit(); err != nil {
		return CommitResult{}, err
	}
	defer g.pause.RUnlock()
	tAdmit := time.Now()
	g.m.queueWait.Dur(tAdmit.Sub(t0))
	// Publish index presence markers BEFORE any timestamp is minted for
	// this transaction: the marker-write < mint ordering is what lets the
	// query planner prune shards soundly (planner.go, package plan). A
	// failed marker write fails the commit — no timestamp or FIFO slot has
	// been reserved yet, so nothing needs unwinding.
	if err := g.writeIndexMarkers(ops); err != nil {
		return CommitResult{}, err
	}
	// One trace per client-visible commit (sampled); retried attempts
	// append their spans to the same trace, so a refinement retry shows up
	// as repeated mint/execute spans rather than a separate trace.
	tr := g.m.tracer.Start()
	tr.Span("gk_queue", t0, tAdmit)
	// Commit pipeline: reserve (timestamp, per-shard sequence numbers)
	// atomically, run the backing-store transaction without holding any
	// gatekeeper lock, then forward. The reservation guarantees that each
	// per-shard FIFO stream delivers monotonically increasing timestamps
	// even with many concurrent committers on this gatekeeper: delivery
	// order is sequence order, which is reservation order, which is
	// timestamp order. Aborted attempts fill their reserved slots with
	// NOPs so the streams never stall (§4.2).
	var lastErr error
	for attempt := 0; attempt < maxCommitRetries; attempt++ {
		if attempt > 0 {
			g.txRetries.Add(1)
		}
		tMint := time.Now()
		rsv := g.reserve()
		tExec := time.Now()
		g.m.mint.Dur(tExec.Sub(tMint))
		tr.Span("gk_mint", tMint, tExec)

		res, shardOps, retry, err := g.tryCommit(rsv.ts, reads, ops, tr)
		g.m.store.Since(tExec)
		if err == nil {
			g.forward(rsv, shardOps, tr)
			g.txCommitted.Add(1)
			g.m.txTotal.Since(t0)
			return res, nil
		}
		g.fillReservation(rsv)
		if !retry {
			if errors.Is(err, ErrConflict) {
				g.txConflicts.Add(1)
			} else {
				g.txInvalid.Add(1)
			}
			g.m.tracer.Abort(tr)
			return CommitResult{}, err
		}
		lastErr = err
	}
	g.txConflicts.Add(1)
	g.m.tracer.Abort(tr)
	return CommitResult{}, fmt.Errorf("%w: timestamp ordering failed after %d retries: %v",
		ErrConflict, maxCommitRetries, lastErr)
}

// applyLagTimeout bounds how long admission control will hold a commit
// waiting for shards to catch up; past it the commit proceeds regardless
// (backpressure is throughput shaping, not a correctness gate — a dead
// shard is the cluster manager's problem, not the committer's).
const applyLagTimeout = 2 * time.Second

// maxApplyLag bounds how many forwarded write-sets may be awaiting shard
// application before new commits are throttled (admission control). The
// commit path (parallel OCC on the backing store) can sustainably outrun
// the apply path; without a bound the backlog — and with it shard queue
// memory, the oracle's dependency DAG, and the wait of anything that needs
// the apply frontier (node programs, Quiesce, migration drains) — grows
// without limit. The DAG's size feeds back into ordering-query cost, so a
// modest bound keeps the whole pipeline fast.
const maxApplyLag = 256

// waitApplyLag blocks while more than maxApplyLag forwarded write-sets
// await shard application, for at most applyLagTimeout. Applies proceed
// independently of commits, so waiting here cannot deadlock; NOPs and
// announces keep flowing from their own loops.
func (g *Gatekeeper) waitApplyLag() {
	if g.applyPending.Load() <= maxApplyLag {
		return
	}
	// A timeout lets the commit proceed; Stop fails it at admit.
	_ = g.waitFor(func() bool { return g.applyPending.Load() <= maxApplyLag }, time.Now().Add(applyLagTimeout))
}

// reservation is one atomically claimed slot in every per-shard FIFO
// stream, paired with the timestamp that will occupy it.
type reservation struct {
	ts   core.Timestamp
	seqs []uint64
}

func (g *Gatekeeper) reserve() reservation {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := reservation{ts: g.clock.Tick(), seqs: make([]uint64, g.cfg.NumShards)}
	for s := 0; s < g.cfg.NumShards; s++ {
		r.seqs[s] = g.seq.Next(transport.ShardAddr(s))
	}
	return r
}

// forward delivers a committed transaction's write-set: involved shards
// get the operations, the rest get a NOP occupying the reserved slot (and
// usefully advancing their frontier past this timestamp). Every TxForward
// is tracked as an outstanding apply until the shard's TxApplied ack comes
// back (Quiesce); the counter must cover ALL involved shards before the
// first send — a fast ack from shard 0 must not let the fence observe
// zero while shard 1's write-set is still unsent.
func (g *Gatekeeper) forward(rsv reservation, shardOps map[int][]graph.Op, tr *obs.Trace) {
	tF := time.Now()
	involved := int64(0)
	for s := 0; s < g.cfg.NumShards; s++ {
		if len(shardOps[s]) > 0 {
			involved++
		}
	}
	g.applyPending.Add(involved)
	// Trace bookkeeping mirrors the apply counter: every involved shard
	// owes the trace a Done, registered BEFORE the first send — a fast
	// shard's Done must not finish the trace while the gatekeeper still
	// holds spans to append. Mark records the send instant the shards
	// measure wire_transfer from.
	tr.Expect(int(involved))
	tr.Mark(tF)
	trace := tr.ID()
	for s := 0; s < g.cfg.NumShards; s++ {
		addr := transport.ShardAddr(s)
		if ops := shardOps[s]; len(ops) > 0 {
			if g.ep.Send(addr, wire.TxForward{TS: rsv.ts, Seq: rsv.seqs[s], Ops: ops, Trace: trace}) != nil {
				g.mu.Lock()
				g.applyPending.Add(-1) // undelivered: no ack will come
				g.changed.Broadcast()
				g.mu.Unlock()
				g.m.tracer.Done(tr) // and no trace completion either
			}
		} else {
			g.ep.Send(addr, wire.Nop{TS: rsv.ts, Seq: rsv.seqs[s]})
		}
	}
	g.m.forward.Since(tF)
	tr.SpanSince("gk_forward", tF)
	g.m.tracer.Done(tr)
}

// fillReservation releases an aborted attempt's stream slots as NOPs.
func (g *Gatekeeper) fillReservation(rsv reservation) {
	for s := 0; s < g.cfg.NumShards; s++ {
		g.ep.Send(transport.ShardAddr(s), wire.Nop{TS: rsv.ts, Seq: rsv.seqs[s]})
	}
}

// storeErr maps a backing-store conflict to ErrConflict (retry with fresh
// reads); any other store error passes through.
func storeErr(err error) error {
	if errors.Is(err, kvstore.ErrConflict) {
		return fmt.Errorf("%w: backing store conflict", ErrConflict)
	}
	return err
}

// tryCommit executes one attempt at timestamp ts, returning the per-shard
// write-sets to forward on success. retry=true means the failure is
// timestamp-ordering related and a fresh timestamp may succeed.
func (g *Gatekeeper) tryCommit(ts core.Timestamp, reads []ReadCheck, ops []graph.Op, tr *obs.Trace) (CommitResult, map[int][]graph.Op, bool, error) {
	tEnter := time.Now()
	tx := g.kv.Begin()
	defer tx.Abort()

	// Validate client reads: the version each read observed must still be
	// current (and must remain so through commit — tx.GetVersioned
	// registers the key in the OCC read set).
	for _, rc := range reads {
		_, ver, _, err := tx.GetVersioned(rc.Key)
		if err != nil {
			return CommitResult{}, nil, false, storeErr(err)
		}
		if ver != rc.Version {
			return CommitResult{}, nil, false, fmt.Errorf("%w: read of %q outdated", ErrConflict, rc.Key)
		}
	}
	if g.testHookValidated != nil {
		g.testHookValidated()
	}

	// Load, validate and mutate the touched vertex records.
	type touched struct {
		rec     *graph.VertexRecord
		had     bool           // record existed before this tx
		lastTS  core.Timestamp // its previous last-update timestamp
		deleted bool           // tx deletes the vertex
	}
	recs := make(map[graph.VertexID]*touched)
	load := func(v graph.VertexID) (*touched, error) {
		if t, ok := recs[v]; ok {
			return t, nil
		}
		// A record that changed since the validation above fails this
		// re-read with a conflict (kvstore.Tx reads are repeatable), so the
		// semantic checks below only ever run on the validated state.
		data, _, found, err := tx.GetVersioned(graph.VertexKey(v))
		if err != nil {
			return nil, storeErr(err)
		}
		t := &touched{}
		if found {
			rec, err := graph.DecodeRecord(data)
			if err != nil {
				return nil, err
			}
			// A tombstone keeps the last-update timestamp but the
			// vertex is not live: recreation is legal, other ops are
			// not.
			t.rec, t.had, t.lastTS, t.deleted = rec, true, rec.LastTS, rec.Deleted
		}
		recs[v] = t
		return t, nil
	}

	edgeMap := make(map[graph.EdgeID]graph.EdgeID)
	finalOps := make([]graph.Op, 0, len(ops))
	nextEdge := 0
	resolveEdge := func(e graph.EdgeID) graph.EdgeID {
		if !strings.HasPrefix(string(e), TempEdgePrefix) {
			return e
		}
		if real, ok := edgeMap[e]; ok {
			return real
		}
		real := graph.MakeEdgeID(ts.ID(), nextEdge)
		nextEdge++
		edgeMap[e] = real
		return real
	}

	for _, op := range ops {
		op.Edge = resolveEdge(op.Edge)
		t, err := load(op.Vertex)
		if err != nil {
			return CommitResult{}, nil, false, err
		}
		live := t.rec != nil && !t.deleted
		switch op.Kind {
		case graph.OpCreateVertex:
			if live {
				return CommitResult{}, nil, false, fmt.Errorf("%w: create_vertex %q: exists", ErrInvalid, op.Vertex)
			}
			t.rec = graph.NewVertexRecord(op.Vertex, g.dir.Lookup(op.Vertex))
			t.deleted = false
		case graph.OpDeleteVertex:
			if !live {
				return CommitResult{}, nil, false, fmt.Errorf("%w: delete_vertex %q: not live", ErrInvalid, op.Vertex)
			}
			t.deleted = true
		case graph.OpCreateEdge:
			if !live {
				return CommitResult{}, nil, false, fmt.Errorf("%w: create_edge on %q: vertex not live", ErrInvalid, op.Vertex)
			}
			if _, dup := t.rec.Edges[op.Edge]; dup {
				return CommitResult{}, nil, false, fmt.Errorf("%w: create_edge %q: duplicate", ErrInvalid, op.Edge)
			}
			if t.rec.Edges == nil {
				// Records decode with nil maps when empty.
				t.rec.Edges = make(map[graph.EdgeID]graph.EdgeRecord, 1)
			}
			t.rec.Edges[op.Edge] = graph.EdgeRecord{To: op.To, Props: map[string]string{}}
		case graph.OpDeleteEdge:
			if !live {
				return CommitResult{}, nil, false, fmt.Errorf("%w: delete_edge on %q: vertex not live", ErrInvalid, op.Vertex)
			}
			if _, ok := t.rec.Edges[op.Edge]; !ok {
				return CommitResult{}, nil, false, fmt.Errorf("%w: delete_edge %q: no such edge", ErrInvalid, op.Edge)
			}
			delete(t.rec.Edges, op.Edge)
		case graph.OpSetVertexProp:
			if !live {
				return CommitResult{}, nil, false, fmt.Errorf("%w: set_prop on %q: vertex not live", ErrInvalid, op.Vertex)
			}
			// Prop maps decode as nil when they were empty on disk, so
			// materialize before writing.
			if t.rec.Props == nil {
				t.rec.Props = make(map[string]string, 1)
			}
			t.rec.Props[op.Key] = op.Value
		case graph.OpDelVertexProp:
			if !live {
				return CommitResult{}, nil, false, fmt.Errorf("%w: del_prop on %q: vertex not live", ErrInvalid, op.Vertex)
			}
			delete(t.rec.Props, op.Key)
		case graph.OpSetEdgeProp:
			if !live {
				return CommitResult{}, nil, false, fmt.Errorf("%w: set_edge_prop on %q: vertex not live", ErrInvalid, op.Vertex)
			}
			er, ok := t.rec.Edges[op.Edge]
			if !ok {
				return CommitResult{}, nil, false, fmt.Errorf("%w: set_edge_prop %q: no such edge", ErrInvalid, op.Edge)
			}
			if er.Props == nil {
				er.Props = make(map[string]string, 1)
			}
			er.Props[op.Key] = op.Value
			t.rec.Edges[op.Edge] = er
		case graph.OpDelEdgeProp:
			if !live {
				return CommitResult{}, nil, false, fmt.Errorf("%w: del_edge_prop on %q: vertex not live", ErrInvalid, op.Vertex)
			}
			er, ok := t.rec.Edges[op.Edge]
			if !ok {
				return CommitResult{}, nil, false, fmt.Errorf("%w: del_edge_prop %q: no such edge", ErrInvalid, op.Edge)
			}
			delete(er.Props, op.Key)
		default:
			return CommitResult{}, nil, false, fmt.Errorf("%w: unknown op %v", ErrInvalid, op.Kind)
		}
		finalOps = append(finalOps, op)
	}

	// Last-update timestamp check (§4.2): ts must order after every
	// touched vertex's previous update. Fresh ticks are never
	// vclock-before an existing timestamp, but pairs are often
	// concurrent — those orders are registered with the timeline oracle
	// so shard replay matches backing-store commit order. The span and
	// histogram cover the whole check, so a purely proactive pass (every
	// pair vclock-ordered, oracle untouched) still records a near-zero
	// oracle_refine span — the proactive/reactive counters tell the two
	// outcomes apart.
	tRefine := time.Now()
	tr.Span("gk_execute", tEnter, tRefine)
	for _, t := range recs {
		if !t.had {
			continue
		}
		switch ts.Compare(t.lastTS) {
		case core.After:
			// Naturally ordered.
			g.m.proactive.Inc()
		case core.Concurrent:
			g.m.reactive.Inc()
			g.oracleAssigns.Add(1)
			if err := g.orc.AssignOrder(oracle.EventOf(t.lastTS), oracle.EventOf(ts)); err != nil {
				return CommitResult{}, nil, true, fmt.Errorf("oracle refused order: %v", err)
			}
		default:
			// Before or Equal: this timestamp cannot commit after
			// lastTS; retry with a fresh one (§4.2).
			return CommitResult{}, nil, true, fmt.Errorf("timestamp %v not after last update %v", ts, t.lastTS)
		}
	}
	tStoreCommit := time.Now()
	g.m.oracleWait.Dur(tStoreCommit.Sub(tRefine))
	tr.Span("oracle_refine", tRefine, tStoreCommit)

	// Write records back.
	for v, t := range recs {
		if t.rec == nil {
			continue
		}
		t.rec.LastTS = ts
		if t.deleted {
			t.rec.Deleted = true
			t.rec.Props = map[string]string{}
			t.rec.Edges = map[graph.EdgeID]graph.EdgeRecord{}
		} else {
			t.rec.Deleted = false
		}
		tx.Put(graph.VertexKey(v), graph.EncodeRecord(t.rec))
	}

	if err := tx.Commit(); err != nil {
		return CommitResult{}, nil, false, storeErr(err)
	}

	// Group the write-set by home shard for the caller to forward.
	shardOps := make(map[int][]graph.Op)
	for _, op := range finalOps {
		s := g.shardOf(op.Vertex, recs[op.Vertex].rec)
		shardOps[s] = append(shardOps[s], op)
	}
	tr.SpanSince("gk_store_commit", tStoreCommit)
	return CommitResult{TS: ts, Edges: edgeMap}, shardOps, false, nil
}

// shardOf resolves a vertex's home shard, preferring the authoritative
// record (which pins placement even if the directory evolves).
func (g *Gatekeeper) shardOf(v graph.VertexID, rec *graph.VertexRecord) int {
	if rec != nil {
		return rec.Shard
	}
	return g.dir.Lookup(v)
}
