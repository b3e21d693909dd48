package shard

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/index"
	"weaver/internal/kvstore"
	"weaver/internal/nodeprog"
	"weaver/internal/oracle"
	"weaver/internal/partition"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// rig builds a shard with a driver endpoint acting as gatekeeper 0 (and
// coordinator) plus helpers to feed it messages.
type rig struct {
	t     *testing.T
	sh    *Shard
	f     *transport.Fabric
	drv   transport.Endpoint
	orc   oracle.Client
	store *kvstore.Store // nil: no backing store
	clock *core.VectorClock
	seq   *transport.Sequencer
}

func newRig(t *testing.T, gks int) *rig {
	return newStoreRig(t, Config{NumGatekeepers: gks}, nil)
}

// newStoreRig is newRig for cfg (shard 0) over store, which may be nil.
func newStoreRig(t *testing.T, cfg Config, store *kvstore.Store) *rig {
	t.Helper()
	f := transport.NewFabric()
	orc := oracle.NewService()
	var kv kvstore.Backing
	if store != nil {
		kv = kvstore.AsBacking(store)
	}
	sh := New(cfg, f.Endpoint(transport.ShardAddr(0)), kv, orc, nodeprog.NewRegistry(), partition.NewHash(1))
	sh.Start()
	t.Cleanup(sh.Stop)
	return &rig{
		t:     t,
		sh:    sh,
		f:     f,
		drv:   f.Endpoint(transport.GatekeeperAddr(0)),
		orc:   orc,
		store: store,
		clock: core.NewVectorClock(0, cfg.NumGatekeepers, 0),
		seq:   transport.NewSequencer(),
	}
}

// commit is a gatekeeper 0 commit at a fresh tick: recs, stamped with it,
// reach the backing store, and then ops are forwarded unless forward is
// false (the gatekeeper died in between).
func (r *rig) commit(forward bool, ops []graph.Op, recs ...*graph.VertexRecord) core.Timestamp {
	ts := r.clock.Tick()
	var puts []kvstore.KV
	for _, rec := range recs {
		rec.LastTS = ts
		puts = append(puts, kvstore.KV{Key: graph.VertexKey(rec.ID), Value: graph.EncodeRecord(rec)})
	}
	r.store.BulkPut(puts)
	if forward {
		r.drv.Send(transport.ShardAddr(0), wire.TxForward{TS: ts, Seq: r.seq.Next(transport.ShardAddr(0)), Ops: ops})
	}
	return ts
}

// read sends one read to the shard and returns its reply (a
// wire.ProgDelta or wire.IndexResult with the read's QID). The caller
// arranges for the frontiers to pass the read timestamp.
func (r *rig) read(msg any, qid core.ID) any {
	r.t.Helper()
	r.drv.Send(transport.ShardAddr(0), msg)
	deadline := time.After(5 * time.Second)
	for {
		for m, ok := r.drv.Next(); ok; m, ok = r.drv.Next() {
			switch d := m.Payload.(type) {
			case wire.ProgDelta:
				if d.QID == qid {
					return d
				}
			case wire.IndexResult:
				if d.QID == qid {
					return d
				}
			}
		}
		select {
		case <-r.drv.Recv():
		case <-deadline:
			r.t.Fatalf("read %v unanswered; stats %+v", qid, r.sh.Stats())
		}
	}
}

// getNode runs get_node on v at readTS (see read).
func (r *rig) getNode(readTS core.Timestamp, v graph.VertexID) wire.ProgDelta {
	return r.read(wire.ProgHops{QID: readTS.ID(), TS: readTS, ReadTS: readTS, Coordinator: r.drv.Addr(),
		Hops: []wire.Hop{{ID: 1, Vertex: v, Program: "get_node"}}}, readTS.ID()).(wire.ProgDelta)
}

func (r *rig) sendTx(ops ...graph.Op) core.Timestamp {
	ts := r.clock.Tick()
	r.drv.Send(transport.ShardAddr(0), wire.TxForward{TS: ts, Seq: r.seq.Next(transport.ShardAddr(0)), Ops: ops})
	return ts
}

func (r *rig) sendNop() core.Timestamp {
	ts := r.clock.Tick()
	r.drv.Send(transport.ShardAddr(0), wire.Nop{TS: ts, Seq: r.seq.Next(transport.ShardAddr(0))})
	return ts
}

// enterEpoch moves the shard at shard/0 into epoch the way the cluster
// manager does — a wire.EpochChange from ep — and returns once it is acked.
func enterEpoch(t *testing.T, ep transport.Endpoint, epoch uint64) {
	t.Helper()
	ep.Send(transport.ShardAddr(0), wire.EpochChange{Epoch: epoch, Phase: wire.EpochPhaseEnter, From: ep.Addr()})
	deadline := time.After(5 * time.Second)
	for {
		for msg, ok := ep.Next(); ok; msg, ok = ep.Next() {
			if ack, ok := msg.Payload.(wire.EpochAck); ok && ack.Epoch == epoch {
				return
			}
		}
		select {
		case <-ep.Recv():
		case <-deadline:
			t.Fatalf("shard never acked epoch %d", epoch)
		}
	}
}

func (r *rig) waitStats(cond func(Stats) bool) Stats {
	r.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := r.sh.Stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("condition never met; stats %+v", st)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestShardAppliesSingleGKInOrder(t *testing.T) {
	r := newRig(t, 1)
	r.sendTx(graph.Op{Kind: graph.OpCreateVertex, Vertex: "a"})
	r.sendTx(graph.Op{Kind: graph.OpSetVertexProp, Vertex: "a", Key: "k", Value: "1"})
	r.sendNop()
	st := r.waitStats(func(s Stats) bool { return s.TxExecuted >= 2 })
	if st.ApplyErrors != 0 {
		t.Fatalf("apply errors: %+v", st)
	}
	if r.sh.Graph().NumVertices() != 1 {
		t.Fatal("vertex missing")
	}
}

// Out-of-order sequence numbers must be resequenced before execution: an
// op stream [create, set-prop] delivered as [set-prop, create] must still
// apply in order.
func TestShardResequencesOutOfOrder(t *testing.T) {
	r := newRig(t, 1)
	ts1 := r.clock.Tick()
	ts2 := r.clock.Tick()
	addr := transport.ShardAddr(0)
	seq1 := r.seq.Next(addr)
	seq2 := r.seq.Next(addr)
	// Deliver the second message first.
	r.drv.Send(addr, wire.TxForward{TS: ts2, Seq: seq2, Ops: []graph.Op{{Kind: graph.OpSetVertexProp, Vertex: "a", Key: "k", Value: "1"}}})
	time.Sleep(2 * time.Millisecond)
	if st := r.sh.Stats(); st.TxExecuted != 0 {
		t.Fatalf("executed before gap filled: %+v", st)
	}
	r.drv.Send(addr, wire.TxForward{TS: ts1, Seq: seq1, Ops: []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "a"}}})
	st := r.waitStats(func(s Stats) bool { return s.TxExecuted >= 2 })
	if st.ApplyErrors != 0 {
		t.Fatalf("resequencing failed: %+v", st)
	}
}

// With two gatekeepers, a transaction from gk0 cannot execute until gk1's
// frontier passes it.
func TestShardWaitsForOtherGatekeepers(t *testing.T) {
	f := transport.NewFabric()
	orc := oracle.NewService()
	sh := New(Config{ID: 0, NumGatekeepers: 2},
		f.Endpoint(transport.ShardAddr(0)), nil, orc, nodeprog.NewRegistry(), partition.NewHash(1))
	sh.Start()
	t.Cleanup(sh.Stop)

	gk0 := f.Endpoint(transport.GatekeeperAddr(0))
	gk1 := f.Endpoint(transport.GatekeeperAddr(1))
	c0 := core.NewVectorClock(0, 2, 0)
	c1 := core.NewVectorClock(1, 2, 0)

	ts := c0.Tick()
	gk0.Send(transport.ShardAddr(0), wire.TxForward{TS: ts, Seq: 1, Ops: []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "a"}}})
	time.Sleep(3 * time.Millisecond)
	if st := sh.Stats(); st.TxExecuted != 0 {
		t.Fatalf("executed without hearing from gk1: %+v", st)
	}
	// gk1 observes gk0's clock and nops past it.
	c1.Observe(c0.Peek())
	gk1.Send(transport.ShardAddr(0), wire.Nop{TS: c1.Tick(), Seq: 1})
	deadline := time.Now().Add(3 * time.Second)
	for sh.Stats().TxExecuted == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("tx never executed: %+v", sh.Stats())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestShardRunsProgramAfterReadiness(t *testing.T) {
	r := newRig(t, 1)
	r.sendTx(graph.Op{Kind: graph.OpCreateVertex, Vertex: "v"})
	progTS := r.clock.Tick()
	r.drv.Send(transport.ShardAddr(0), wire.ProgHops{
		QID: progTS.ID(), TS: progTS, ReadTS: progTS,
		Hops:        []wire.Hop{{ID: 1, Vertex: "v", Program: "get_node"}},
		Coordinator: r.drv.Addr(),
	})
	time.Sleep(2 * time.Millisecond)
	if st := r.sh.Stats(); st.ProgVisits != 0 {
		t.Fatal("program ran before frontier passed its timestamp")
	}
	r.sendNop() // frontier passes progTS
	// Expect a delta back.
	deadline := time.After(3 * time.Second)
	for {
		select {
		case <-r.drv.Recv():
			for {
				m, ok := r.drv.Next()
				if !ok {
					break
				}
				if d, isDelta := m.Payload.(wire.ProgDelta); isDelta {
					if len(d.ConsumedIDs) != 1 || d.ConsumedIDs[0] != 1 || len(d.Results) != 1 {
						t.Fatalf("unexpected delta %+v", d)
					}
					return
				}
			}
		case <-deadline:
			t.Fatalf("no delta; stats %+v", r.sh.Stats())
		}
	}
}

// One batch visits a vertex with a property and eight out-edges, then one
// with neither, then one that does not exist, through the shard's one
// reused view and Context: the second visit's get_node and get_edges
// results carry nothing of the first, and the third returns nothing. A
// traverse batch then mixes visits that fill the view with visits that
// only ask whether their vertex exists: a visit that reads no view, after
// one that did, and a visit at an absent vertex see their own vertex, not
// the previous visit's.
func TestBatchVisitCarriesNothingFromThePrevious(t *testing.T) {
	r := newRig(t, 1)
	ops := []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "big"}, {Kind: graph.OpCreateVertex, Vertex: "bare"},
		{Kind: graph.OpSetVertexProp, Vertex: "big", Key: "city", Value: "ithaca"}}
	for i := 0; i < 8; i++ {
		ops = append(ops, graph.Op{Kind: graph.OpCreateEdge, Vertex: "big",
			Edge: graph.EdgeID(fmt.Sprintf("e%d", i)), To: graph.VertexID(fmt.Sprintf("u%d", i))})
	}
	r.sendTx(ops...)
	reads := []core.Timestamp{r.clock.Tick(), r.clock.Tick(), r.clock.Tick()}
	r.sendNop()
	for i, prog := range []string{"get_node", "get_edges"} {
		ts := reads[i]
		// A batch runs its hops from the last: big, bare, then absent.
		d := r.read(wire.ProgHops{QID: ts.ID(), TS: ts, ReadTS: ts, Coordinator: r.drv.Addr(),
			Hops: []wire.Hop{{ID: 1, Vertex: "absent", Program: prog}, {ID: 2, Vertex: "bare", Program: prog},
				{ID: 3, Vertex: "big", Program: prog}}}, ts.ID()).(wire.ProgDelta)
		if d.Err != "" || len(d.Results) != 2 {
			t.Fatalf("%s: %d results, err %q", prog, len(d.Results), d.Err)
		}
		var big, bare nodeprog.NodeData
		if nodeprog.Decode(d.Results[0], &big) != nil || nodeprog.Decode(d.Results[1], &bare) != nil || big.ID != "big" || bare.ID != "bare" {
			t.Fatalf("%s: results %+v then %+v, want big then bare", prog, big, bare)
		}
		if big.NumEdges != 8 || (prog == "get_node") != (big.Props["city"] == "ithaca") || (prog == "get_edges") != (len(big.EdgesTo) == 8) {
			t.Fatalf("%s(big) = %+v", prog, big)
		}
		if bare.NumEdges != 0 || len(bare.Props) != 0 || len(bare.EdgesTo) != 0 {
			t.Fatalf("%s(bare) after big = %+v, want nothing", prog, bare)
		}
	}

	// From the last hop: big expands (fills its view) and cascades to its
	// eight absent targets at the depth limit (no view read); then bare at
	// the depth limit (exists, no view read); then absent. Only big and
	// bare exist.
	ts := reads[2]
	leaf := nodeprog.Encode(nodeprog.TraverseParams{MaxDepth: 1, Depth: 1})
	d := r.read(wire.ProgHops{QID: ts.ID(), TS: ts, ReadTS: ts, Coordinator: r.drv.Addr(),
		Hops: []wire.Hop{{ID: 1, Vertex: "absent", Program: "traverse", Params: leaf},
			{ID: 2, Vertex: "bare", Program: "traverse", Params: leaf},
			{ID: 3, Vertex: "big", Program: "traverse", Params: nodeprog.Encode(nodeprog.TraverseParams{MaxDepth: 1})}}}, ts.ID()).(wire.ProgDelta)
	var got []graph.VertexID
	for _, res := range d.Results {
		var v graph.VertexID
		if err := nodeprog.Decode(res, &v); err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	if d.Err != "" || !slices.Equal(got, []graph.VertexID{"big", "bare"}) {
		t.Fatalf("traverse visited %v (err %q), want [big bare]: a visit saw the previous visit's vertex", got, d.Err)
	}
}

// A finished query's states map goes to the free list and the next query
// that stores state takes it: that query must start from an empty map.
// Both traverse the same three vertices, so a map carrying the first
// query's visited marks would make the second return nothing.
func TestRecycledStateMapCarriesNothing(t *testing.T) {
	r := newRig(t, 1)
	r.sendTx(graph.Op{Kind: graph.OpCreateVertex, Vertex: "a"}, graph.Op{Kind: graph.OpCreateVertex, Vertex: "b"},
		graph.Op{Kind: graph.OpCreateVertex, Vertex: "c"},
		graph.Op{Kind: graph.OpCreateEdge, Vertex: "a", Edge: "ab", To: "b"},
		graph.Op{Kind: graph.OpCreateEdge, Vertex: "a", Edge: "ac", To: "c"})
	reads := []core.Timestamp{r.clock.Tick(), r.clock.Tick()}
	r.sendNop()
	traverse := func(ts core.Timestamp) []graph.VertexID {
		t.Helper()
		d := r.read(wire.ProgHops{QID: ts.ID(), TS: ts, ReadTS: ts, Coordinator: r.drv.Addr(),
			Hops: []wire.Hop{{ID: 1, Vertex: "a", Program: "traverse", Params: nodeprog.Encode(nodeprog.TraverseParams{MaxDepth: 1})}}},
			ts.ID()).(wire.ProgDelta)
		if d.Err != "" {
			t.Fatal(d.Err)
		}
		var got []graph.VertexID
		for _, res := range d.Results {
			var v graph.VertexID
			if err := nodeprog.Decode(res, &v); err != nil {
				t.Fatal(err)
			}
			got = append(got, v)
		}
		slices.Sort(got)
		return got
	}
	// The shard's event loop wrote progState before it sent the delta and
	// writes it next after the ProgFinish below, so reading it in between
	// is ordered by the mailboxes.
	mapID := func(ts core.Timestamp) uintptr { return reflect.ValueOf(r.sh.progState[ts.ID()]).Pointer() }
	want := []graph.VertexID{"a", "b", "c"}
	if got := traverse(reads[0]); !slices.Equal(got, want) {
		t.Fatalf("first query visited %v, want %v", got, want)
	}
	first := mapID(reads[0])
	r.drv.Send(transport.ShardAddr(0), wire.ProgFinish{QID: reads[0].ID()})
	if got := traverse(reads[1]); !slices.Equal(got, want) {
		t.Fatalf("second query visited %v, want %v: its recycled states map kept the first query's marks", got, want)
	}
	if second := mapID(reads[1]); first == 0 || second != first {
		t.Fatalf("second query's states map %#x is not the first's %#x: nothing was recycled", second, first)
	}
}

func TestShardDropsHopsForFinishedQueries(t *testing.T) {
	r := newRig(t, 1)
	r.sendTx(graph.Op{Kind: graph.OpCreateVertex, Vertex: "v"})
	progTS := r.clock.Tick()
	qid := progTS.ID()
	r.drv.Send(transport.ShardAddr(0), wire.ProgFinish{QID: qid})
	time.Sleep(time.Millisecond)
	r.drv.Send(transport.ShardAddr(0), wire.ProgHops{
		QID: qid, TS: progTS, ReadTS: progTS,
		Hops:        []wire.Hop{{ID: 1, Vertex: "v", Program: "get_node"}},
		Coordinator: r.drv.Addr(),
	})
	r.sendNop()
	r.sendNop()
	time.Sleep(5 * time.Millisecond)
	if st := r.sh.Stats(); st.ProgVisits != 0 {
		t.Fatalf("finished query still executed: %+v", st)
	}
}

func TestShardGCCollectsOldVersions(t *testing.T) {
	r := newRig(t, 1)
	r.sendTx(graph.Op{Kind: graph.OpCreateVertex, Vertex: "v"})
	r.sendTx(graph.Op{Kind: graph.OpSetVertexProp, Vertex: "v", Key: "k", Value: "1"})
	r.sendTx(graph.Op{Kind: graph.OpSetVertexProp, Vertex: "v", Key: "k", Value: "2"})
	r.waitStats(func(s Stats) bool { return s.TxExecuted >= 3 })
	// Report a watermark past everything: the superseded "1" version goes.
	r.drv.Send(transport.ShardAddr(0), wire.GCWatermark{TS: r.clock.Tick()})
	st := r.waitStats(func(s Stats) bool { return s.GCCollected >= 1 })
	if st.GCCollected != 1 {
		t.Fatalf("collected %d, want 1", st.GCCollected)
	}
}

// The cluster watermark folds gatekeeper clocks, which run ahead of what a
// shard has applied. A watermark past a write the shard has not applied yet
// must not let that write end a version below it: with the watermark held
// there (a pinned snapshot), the version would never be collected, since
// sweeps run only when the watermark moves.
func TestShardGCCollectsWriteAppliedAfterReport(t *testing.T) {
	r := newRig(t, 1)
	r.sendTx(graph.Op{Kind: graph.OpCreateVertex, Vertex: "v"},
		graph.Op{Kind: graph.OpSetVertexProp, Vertex: "v", Key: "k", Value: "1"})
	r.waitStats(func(s Stats) bool { return s.TxExecuted == 1 })
	write := r.clock.Tick() // committed, not yet forwarded
	held := r.clock.Tick()
	r.drv.Send(transport.ShardAddr(0), wire.GCWatermark{TS: held})
	r.drv.Send(transport.ShardAddr(0), wire.TxForward{TS: write, Seq: r.seq.Next(transport.ShardAddr(0)),
		Ops: []graph.Op{{Kind: graph.OpSetVertexProp, Vertex: "v", Key: "k", Value: "2"}}})
	r.sendNop()
	r.waitStats(func(s Stats) bool { return s.TxExecuted == 2 })
	r.drv.Send(transport.ShardAddr(0), wire.GCWatermark{TS: held})
	if st := r.waitStats(func(s Stats) bool { return s.GCCollected >= 1 }); st.GCCollected != 1 {
		t.Fatalf("collected %d, want 1", st.GCCollected)
	}
}

// gcRound sends gatekeeper 0's cluster watermark wm and returns the shard's
// answer.
func (r *rig) gcRound(wm core.Timestamp) wire.ShardGCReport {
	r.t.Helper()
	r.drv.Send(transport.ShardAddr(0), wire.GCWatermark{TS: wm})
	deadline := time.After(5 * time.Second)
	for {
		for m, ok := r.drv.Next(); ok; m, ok = r.drv.Next() {
			if a, ok := m.Payload.(wire.ShardGCReport); ok {
				return a
			}
		}
		select {
		case <-r.drv.Recv():
		case <-deadline:
			r.t.Fatalf("watermark %v unanswered; stats %+v", wm, r.sh.Stats())
		}
	}
}

// A shard collects at gatekeeper 0's watermark and never moves it back: a
// lower watermark after a higher one (a restarted gatekeeper 0 folds from
// scratch) leaves a read between the two refused. Every watermark message,
// zero included, is answered with the shard's applied bound.
func TestShardGCWatermarkNeverMovesBack(t *testing.T) {
	r := newRig(t, 1)
	if a := r.gcRound(core.Timestamp{}); a.Shard != 0 || !a.TS.Zero() {
		t.Fatalf("answer before any stream = %+v, want shard 0 with a zero bound", a)
	}
	r.sendTx(graph.Op{Kind: graph.OpCreateVertex, Vertex: "v"},
		graph.Op{Kind: graph.OpSetVertexProp, Vertex: "v", Key: "k", Value: "1"})
	low := r.clock.Tick()
	r.sendTx(graph.Op{Kind: graph.OpSetVertexProp, Vertex: "v", Key: "k", Value: "2"})
	high := r.clock.Tick()
	nop := r.sendNop()
	r.waitStats(func(s Stats) bool { return s.TxExecuted == 2 })
	for _, wm := range []core.Timestamp{{}, high, low, {}} {
		if a := r.gcRound(wm); a.Shard != 0 || !a.TS.Equals(nop) {
			t.Fatalf("answer to watermark %v = %+v, want the applied bound %v", wm, a, nop)
		}
	}
	if st := r.sh.Stats(); st.GCCollected != 1 {
		t.Fatalf("collected %d, want the one version ended below high", st.GCCollected)
	}
	if d := r.getNode(low, "v"); d.ErrCode != wire.ErrCodeStaleSnapshot {
		t.Fatalf("read at %v after a lower watermark answered instead of refused: %+v", low, d)
	}
	if d := r.getNode(high, "v"); d.Err != "" {
		t.Fatalf("read at the watermark refused: %+v", d)
	}
}

func TestShardEnterEpochResetsStreams(t *testing.T) {
	r := newRig(t, 1)
	r.sendTx(graph.Op{Kind: graph.OpCreateVertex, Vertex: "a"})
	r.waitStats(func(s Stats) bool { return s.TxExecuted >= 1 })
	enterEpoch(t, r.drv, 1)
	// New epoch: sequence numbering restarts at 1.
	r.clock.AdvanceEpoch(1)
	r.seq.Reset()
	r.sendTx(graph.Op{Kind: graph.OpCreateVertex, Vertex: "b"})
	st := r.waitStats(func(s Stats) bool { return s.TxExecuted >= 2 })
	if st.ApplyErrors != 0 {
		t.Fatalf("epoch reset broke the stream: %+v", st)
	}
}

// A transaction whose timestamp a peer gatekeeper's frontier never passed
// (no announce/NOP exchanged) is queued-unexecutable; the §4.3 epoch
// barrier must still execute it, because no more old-epoch traffic can
// ever arrive and gatekeepers reset their apply accounting at the bump.
func TestShardEnterEpochExecutesStalledQueue(t *testing.T) {
	f := transport.NewFabric()
	sh := New(Config{ID: 0, NumGatekeepers: 2},
		f.Endpoint(transport.ShardAddr(0)), nil, oracle.NewService(), nodeprog.NewRegistry(), partition.NewHash(1))
	sh.Start()
	t.Cleanup(sh.Stop)
	gk0 := f.Endpoint(transport.GatekeeperAddr(0))
	gk1 := f.Endpoint(transport.GatekeeperAddr(1))
	c0 := core.NewVectorClock(0, 2, 0)
	c1 := core.NewVectorClock(1, 2, 0)
	// gk1's frontier is concurrent with gk0's transaction and never
	// advances past it.
	gk1.Send(transport.ShardAddr(0), wire.Nop{TS: c1.Tick(), Seq: 1})
	gk0.Send(transport.ShardAddr(0), wire.TxForward{TS: c0.Tick(), Seq: 1,
		Ops: []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "stalled"}}})
	time.Sleep(3 * time.Millisecond)
	if st := sh.Stats(); st.TxExecuted != 0 {
		t.Fatalf("tx executed without ordering evidence: %+v", st)
	}
	enterEpoch(t, gk0, 1)
	if st := sh.Stats(); st.TxExecuted != 1 || st.ApplyErrors != 0 {
		t.Fatalf("barrier left the queue stalled: %+v", st)
	}
	if !sh.Graph().Has("stalled") {
		t.Fatal("queued transaction not applied at the barrier")
	}
}

// A delete that committed to the backing store but was never forwarded
// (its gatekeeper died in between) reaches the shard only as a tombstone
// record at recovery. The vertex it deletes must stop being visible to
// fresh reads and lookups — pre-fix the tombstone only raised the horizon
// and the vertex lived on as a ghost — while reads below the tombstone
// stay refused, never answered from the truncated history.
func TestInstallRecoveredAppliesUnforwardedTombstone(t *testing.T) {
	f := transport.NewFabric()
	sh := New(Config{ID: 0, NumGatekeepers: 1, Indexes: []index.Spec{{Key: "k"}}},
		f.Endpoint(transport.ShardAddr(0)), nil, oracle.NewService(), nodeprog.NewRegistry(), partition.NewHash(1))
	drv := f.Endpoint(transport.GatekeeperAddr(0))
	clock := core.NewVectorClock(0, 1, 0)
	created, below, deleted := clock.Tick(), clock.Tick(), clock.Tick()
	sh.InstallRecovered([]*graph.VertexRecord{{ID: "ghost", Props: map[string]string{"k": "v"}, LastTS: created}})
	if !sh.Graph().Has("ghost") {
		t.Fatal("live record not installed")
	}
	sh.InstallRecovered([]*graph.VertexRecord{{ID: "ghost", Deleted: true, LastTS: deleted}})
	sh.Start()
	t.Cleanup(sh.Stop)

	fresh, lookup := clock.Tick(), clock.Tick()
	hops := func(ts core.Timestamp) wire.ProgHops {
		return wire.ProgHops{QID: ts.ID(), TS: ts, ReadTS: ts, Coordinator: drv.Addr(),
			Hops: []wire.Hop{{ID: 1, Vertex: "ghost", Program: "get_node"}}}
	}
	drv.Send(transport.ShardAddr(0), hops(fresh))
	drv.Send(transport.ShardAddr(0), wire.IndexLookup{QID: lookup.ID(), ReadTS: lookup, Wheres: wire.Eq("k", "v"), Reply: drv.Addr()})
	drv.Send(transport.ShardAddr(0), hops(below))
	drv.Send(transport.ShardAddr(0), wire.Nop{TS: clock.Tick(), Seq: 1}) // frontier passes every read

	pending := 3
	deadline := time.After(5 * time.Second)
	for pending > 0 {
		select {
		case <-drv.Recv():
		case <-deadline:
			t.Fatalf("%d reads unanswered; stats %+v", pending, sh.Stats())
		}
		for m, ok := drv.Next(); ok; m, ok = drv.Next() {
			switch d := m.Payload.(type) {
			case wire.ProgDelta:
				pending--
				switch d.QID {
				case fresh.ID():
					if d.Err != "" || len(d.Results) != 0 {
						t.Errorf("fresh get_node still sees the deleted vertex: %+v", d)
					}
				case below.ID():
					if d.ErrCode != wire.ErrCodeStaleSnapshot {
						t.Errorf("read below the tombstone answered instead of refused: %+v", d)
					}
				}
			case wire.IndexResult:
				pending--
				if d.Err != "" || len(d.Vertices) != 0 {
					t.Errorf("index lookup still returns the deleted vertex: %+v", d)
				}
			}
		}
	}
}

// A commit whose stamp is vclock-concurrent with the resident last write of
// its vertex — ordered after it by the timeline oracle at commit time (§4.2)
// — and never forwarded reaches the shard only through the epoch barrier's
// sweep. The sweep must decide by that order, not by the vector clocks
// alone: a set replaces the old value and a delete removes the vertex.
func TestBarrierSweepsConcurrentUnforwardedCommit(t *testing.T) {
	for _, del := range []bool{false, true} {
		t.Run(fmt.Sprintf("delete=%v", del), func(t *testing.T) {
			r := newStoreRig(t, Config{NumGatekeepers: 2}, kvstore.New())
			gk1 := r.f.Endpoint(transport.GatekeeperAddr(1))
			c1 := core.NewVectorClock(1, 2, 0)
			tb := c1.Tick() // minted before gk1 hears of ta: concurrent with it
			rec := graph.NewVertexRecord("v", 0)
			rec.Props["k"] = "a"
			ta := r.commit(true, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "v"},
				{Kind: graph.OpSetVertexProp, Vertex: "v", Key: "k", Value: "a"}}, rec)
			c1.Observe(ta)
			gk1.Send(transport.ShardAddr(0), wire.Nop{TS: c1.Tick(), Seq: 1})
			r.waitStats(func(s Stats) bool { return s.TxExecuted == 1 })

			// tb commits after ta, so the oracle orders the pair; its
			// gatekeeper dies before forwarding it.
			if err := r.orc.AssignOrder(oracle.EventOf(ta), oracle.EventOf(tb)); err != nil {
				t.Fatal(err)
			}
			if del {
				rec.Deleted, rec.Props = true, map[string]string{}
			} else {
				rec.Props["k"] = "b"
			}
			rec.LastTS = tb
			r.store.BulkPut([]kvstore.KV{{Key: graph.VertexKey("v"), Value: graph.EncodeRecord(rec)}})

			enterEpoch(t, r.drv, 1)
			r.clock.AdvanceEpoch(1)
			r.seq.Reset()
			c1.AdvanceEpoch(1)
			reader := r.clock.Tick()
			r.sendNop()
			c1.Observe(reader)
			gk1.Send(transport.ShardAddr(0), wire.Nop{TS: c1.Tick(), Seq: 1})
			d := r.getNode(reader, "v")
			if del {
				if d.Err != "" || len(d.Results) != 0 {
					t.Fatalf("the unforwarded delete was dropped: %d results, err %q", len(d.Results), d.Err)
				}
				return
			}
			var nd nodeprog.NodeData
			if d.Err != "" || len(d.Results) != 1 || nodeprog.Decode(d.Results[0], &nd) != nil || nd.Props["k"] != "b" {
				t.Fatalf("the unforwarded set was dropped: %d results, err %q, props %v", len(d.Results), d.Err, nd.Props)
			}
		})
	}
}

// Recover's decision for a resident vertex whose last writes are concurrent
// — one edge from each gatekeeper — must not depend on the order the
// vertex's edge map yields them. The stored record is stamped with one of
// them, ta, and the oracle already orders tb before ta: the record holds
// nothing the graph lacks, so it is never re-installed (which would mark
// the chain and refuse every read below ta), in either insertion order and
// on every round.
func TestRecoverDecisionIgnoresEdgeMapOrder(t *testing.T) {
	type write struct {
		edge graph.EdgeID
		to   graph.VertexID
		ts   core.Timestamp
	}
	for round := 0; round < 100; round++ {
		for _, aFirst := range []bool{true, false} {
			store, orc := kvstore.New(), oracle.NewService()
			sh := New(Config{NumGatekeepers: 2}, transport.NewFabric().Endpoint(transport.ShardAddr(0)),
				kvstore.AsBacking(store), orc, nodeprog.NewRegistry(), partition.NewHash(1))
			c0, c1 := core.NewVectorClock(0, 2, 0), core.NewVectorClock(1, 2, 0)
			created := c0.Tick()
			c1.Observe(created)
			ta, tb := c0.Tick(), c1.Tick()
			if ta.Compare(tb) != core.Concurrent {
				t.Fatalf("stamps %v and %v are not concurrent", ta, tb)
			}
			if err := orc.AssignOrder(oracle.EventOf(tb), oracle.EventOf(ta)); err != nil {
				t.Fatal(err)
			}
			writes := []write{{"ea", "a", ta}, {"eb", "b", tb}}
			if !aFirst {
				writes[0], writes[1] = writes[1], writes[0]
			}
			if err := sh.g.Apply(graph.Op{Kind: graph.OpCreateVertex, Vertex: "v"}, created); err != nil {
				t.Fatal(err)
			}
			rec := graph.NewVertexRecord("v", 0)
			for _, w := range writes {
				if err := sh.g.Apply(graph.Op{Kind: graph.OpCreateEdge, Vertex: "v", Edge: w.edge, To: w.to}, w.ts); err != nil {
					t.Fatal(err)
				}
				rec.Edges[w.edge] = graph.EdgeRecord{To: w.to}
			}
			rec.LastTS = ta
			store.BulkPut([]kvstore.KV{{Key: graph.VertexKey("v"), Value: graph.EncodeRecord(rec)}})
			if n, err := sh.Recover(); err != nil || n != 0 {
				t.Fatalf("round %d, ta first=%v: Recover re-installed %d records (err %v); the record at ta is not after tb", round, aFirst, n, err)
			}
		}
	}
}

// A record that does not decode could be homed on any shard, so Recover
// never passes it by as absent: it installs every record that decodes and
// returns an error naming the key of each that did not, and the epoch
// barrier's sweep counts that error in RecoverErrors, as it counts an
// unreadable store.
func TestRecoverReportsUndecodableRecord(t *testing.T) {
	store := kvstore.New()
	clock := core.NewVectorClock(0, 1, 0)
	var puts []kvstore.KV
	for _, v := range []graph.VertexID{"a", "b"} {
		rec := graph.NewVertexRecord(v, 0)
		rec.LastTS = clock.Tick()
		puts = append(puts, kvstore.KV{Key: graph.VertexKey(v), Value: graph.EncodeRecord(rec)})
	}
	bad := graph.VertexKey("bad")
	store.BulkPut(append(puts, kvstore.KV{Key: bad, Value: []byte{0, 0, 1}}))

	sh := New(Config{NumGatekeepers: 1}, transport.NewFabric().Endpoint(transport.ShardAddr(0)),
		kvstore.AsBacking(store), oracle.NewService(), nodeprog.NewRegistry(), partition.NewHash(1))
	n, err := sh.Recover()
	if !errors.Is(err, graph.ErrNotRecord) || !strings.Contains(err.Error(), strconv.Quote(bad)) {
		t.Fatalf("Recover over an undecodable record: err %v, want one naming %q", err, bad)
	}
	if n != 2 || sh.g.NumVertices() != 2 {
		t.Fatalf("Recover installed %d records (%d vertices resident), want the 2 that decode", n, sh.g.NumVertices())
	}

	r := newStoreRig(t, Config{NumGatekeepers: 1}, store)
	enterEpoch(t, r.drv, 1)
	if st := r.sh.Stats(); st.RecoverErrors != 1 {
		t.Fatalf("the barrier sweep over an undecodable record counted %d RecoverErrors, want 1", st.RecoverErrors)
	}
}

// A read that faults in a paged-out vertex whose record does not decode
// fails with an error naming the key, never answers "no such vertex"; a
// vertex whose record decodes still pages in and answers.
func TestPageInReportsUndecodableRecord(t *testing.T) {
	r := newStoreRig(t, Config{NumGatekeepers: 1, MaxVertices: 1}, kvstore.New())
	var ops []graph.Op
	var recs []*graph.VertexRecord
	for _, v := range []graph.VertexID{"v0", "v1"} {
		ops = append(ops, graph.Op{Kind: graph.OpCreateVertex, Vertex: v})
		recs = append(recs, graph.NewVertexRecord(v, 0))
	}
	r.commit(true, ops, recs...)
	last := r.commit(true, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "hot"}}, graph.NewVertexRecord("hot", 0))
	r.waitStats(func(s Stats) bool { return s.TxExecuted == 2 })
	r.drv.Send(transport.ShardAddr(0), wire.GCWatermark{TS: last})
	r.waitStats(func(s Stats) bool { return s.PagedOut == 2 })

	bad := graph.VertexKey("v0")
	r.store.BulkPut([]kvstore.KV{{Key: bad, Value: []byte{0, 0, 1}}})
	ts := r.clock.Tick()
	r.sendNop()
	d := r.getNode(ts, "v0")
	if d.Err == "" || !strings.Contains(d.Err, strconv.Quote(bad)) || !strings.Contains(d.Err, graph.ErrNotRecord.Error()) {
		t.Fatalf("get_node over an undecodable record: %+v, want an error naming %q", d, bad)
	}
	if d := r.getNode(ts, "v1"); d.Err != "" || len(d.Results) != 1 {
		t.Fatalf("get_node v1 after paging in: %+v, want its one result", d)
	}
}

// A delete committed and never forwarded, of a vertex demand paging evicted
// from the graph, reaches the shard only as a tombstone at the epoch
// barrier's sweep. The index still holds the vertex — it is never paged out
// — so the tombstone must reach it too, or lookups keep returning a vertex
// the graph no longer has.
func TestBarrierTombstoneOfPagedOutVertexLeavesIndex(t *testing.T) {
	r := newStoreRig(t, Config{NumGatekeepers: 1, MaxVertices: 1, Indexes: []index.Spec{{Key: "city"}}}, kvstore.New())
	var ops []graph.Op
	var recs []*graph.VertexRecord
	for _, v := range []graph.VertexID{"gone", "kept"} {
		ops = append(ops, graph.Op{Kind: graph.OpCreateVertex, Vertex: v},
			graph.Op{Kind: graph.OpSetVertexProp, Vertex: v, Key: "city", Value: "ithaca"})
		rec := graph.NewVertexRecord(v, 0)
		rec.Props["city"] = "ithaca"
		recs = append(recs, rec)
	}
	r.commit(true, ops, recs...)
	// A later write elsewhere, then a GC round at it: both are cold and over
	// the cap.
	last := r.commit(true, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "hot"}}, graph.NewVertexRecord("hot", 0))
	r.waitStats(func(s Stats) bool { return s.TxExecuted == 2 })
	r.drv.Send(transport.ShardAddr(0), wire.GCWatermark{TS: last})
	r.waitStats(func(s Stats) bool { return s.PagedOut == 2 })

	recs[0].Deleted, recs[0].Props = true, map[string]string{}
	r.commit(false, nil, recs[0])
	enterEpoch(t, r.drv, 1)
	r.clock.AdvanceEpoch(1)
	r.seq.Reset()
	ts := r.clock.Tick()
	r.sendNop()
	res := r.read(wire.IndexLookup{QID: ts.ID(), ReadTS: ts, Wheres: wire.Eq("city", "ithaca"), Reply: r.drv.Addr()}, ts.ID()).(wire.IndexResult)
	if res.Err != "" || !slices.Equal(res.Vertices, []graph.VertexID{"kept"}) {
		t.Fatalf("lookup after the barrier = %+v, want [kept]", res)
	}
}

// An epoch barrier that sweeps in an unforwarded write to B refuses reads
// of B below the record it installed and nothing else: pinned reads of an
// untouched A still answer. Only lookups, which cannot tell which vertices
// a record truncated, are refused below the install horizon.
func TestBarrierSweepRefusesOnlyWhatItInstalled(t *testing.T) {
	r := newStoreRig(t, Config{NumGatekeepers: 1, Indexes: []index.Spec{{Key: "k"}}}, kvstore.New())
	a, b := graph.NewVertexRecord("A", 0), graph.NewVertexRecord("B", 0)
	a.Props["k"], b.Props["k"] = "a0", "b0"
	r.commit(true, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "A"}, {Kind: graph.OpSetVertexProp, Vertex: "A", Key: "k", Value: "a0"},
		{Kind: graph.OpCreateVertex, Vertex: "B"}, {Kind: graph.OpSetVertexProp, Vertex: "B", Key: "k", Value: "b0"}}, a, b)
	p0 := r.clock.Tick()
	b.Props["k"] = "b1"
	r.commit(false, nil, b)
	p1 := r.clock.Tick()
	b.Deleted, b.Props = true, map[string]string{}
	r.commit(false, nil, b)
	r.sendNop()
	r.waitStats(func(s Stats) bool { return s.TxExecuted == 1 })

	enterEpoch(t, r.drv, 1)
	r.clock.AdvanceEpoch(1)
	r.seq.Reset()
	fresh := r.clock.Tick()
	r.sendNop()
	for _, p := range []core.Timestamp{p0, p1} {
		var nd nodeprog.NodeData
		if d := r.getNode(p, "A"); d.Err != "" || len(d.Results) != 1 || nodeprog.Decode(d.Results[0], &nd) != nil || nd.Props["k"] != "a0" {
			t.Fatalf("get_node(A) at %v = %d results, err %q, props %v; want k=a0", p, len(d.Results), d.Err, nd.Props)
		}
		if d := r.getNode(p, "B"); d.ErrCode != wire.ErrCodeStaleSnapshot {
			t.Fatalf("get_node(B) at %v below its swept record answered instead of refused: %+v", p, d)
		}
	}
	if d := r.getNode(fresh, "B"); d.Err != "" || len(d.Results) != 0 {
		t.Fatalf("fresh get_node(B) after its swept delete = %+v, want not found", d)
	}
	res := r.read(wire.IndexLookup{QID: p0.ID(), ReadTS: p0, Wheres: wire.Eq("k", "a0"), Reply: r.drv.Addr()}, p0.ID()).(wire.IndexResult)
	if res.ErrCode != wire.ErrCodeStaleSnapshot {
		t.Fatalf("lookup below the install horizon answered instead of refused: %+v", res)
	}
}

// A recovered vertex's mark and the index's install horizon move with the
// vertex: after a migration, the target refuses reads below the record the
// source recovered.
func TestRecoveredHorizonMovesWithVertex(t *testing.T) {
	indexes := []index.Spec{{Key: "k"}}
	src := New(Config{NumGatekeepers: 1, Indexes: indexes}, transport.NewFabric().Endpoint(transport.ShardAddr(0)),
		nil, oracle.NewService(), nodeprog.NewRegistry(), partition.NewHash(1))
	r := newStoreRig(t, Config{NumGatekeepers: 1, Indexes: indexes}, nil)
	pinned, stamp := r.clock.Tick(), r.clock.Tick()
	src.InstallRecovered([]*graph.VertexRecord{{ID: "v", Props: map[string]string{"k": "x"}, LastTS: stamp}})
	r.sh.Attach(src.Detach([]graph.VertexID{"v"}))
	r.sendNop()
	if d := r.getNode(pinned, "v"); d.ErrCode != wire.ErrCodeStaleSnapshot {
		t.Fatalf("get_node below the moved record answered instead of refused: %+v", d)
	}
	res := r.read(wire.IndexLookup{QID: stamp.ID(), ReadTS: pinned, Wheres: wire.Eq("k", "x"), Reply: r.drv.Addr()}, stamp.ID()).(wire.IndexResult)
	if res.ErrCode != wire.ErrCodeStaleSnapshot {
		t.Fatalf("lookup below the moved record answered instead of refused: %+v", res)
	}
}

// The heat table must stay bounded even when no rebalancer ever decays it:
// churn over many distinct vertices hard-caps at heatMaxEntries.
func TestHeatMapBounded(t *testing.T) {
	h := newHeatMap()
	for i := 0; i < heatMaxEntries+heatMaxEntries/2; i++ {
		h.addOps([]graph.Op{{Kind: graph.OpSetVertexProp, Vertex: graph.VertexID(fmt.Sprintf("v%d", i))}})
	}
	if n := len(h.topK(0, 0)); n > heatMaxEntries {
		t.Fatalf("heat table grew to %d entries (cap %d)", n, heatMaxEntries)
	}
}

// nopRequests collects the NopRequests that reach ep: at least min of them
// (waiting up to 5 s), then whatever else arrives within 30 ms.
func nopRequests(ep transport.Endpoint, min int) []wire.NopRequest {
	var out []wire.NopRequest
	timeout := time.After(5 * time.Second)
	var settle <-chan time.Time
	for {
		for m, ok := ep.Next(); ok; m, ok = ep.Next() {
			if req, ok := m.Payload.(wire.NopRequest); ok {
				out = append(out, req)
			}
		}
		if settle == nil && len(out) >= min {
			settle = time.After(30 * time.Millisecond)
		}
		select {
		case <-ep.Recv():
		case <-settle:
			return out
		case <-timeout:
			return out
		}
	}
}

// A read parked behind silent streams asks each gatekeeper holding it back
// for one NOP past it and past the queue head it waits on; a read the
// outstanding request already covers asks nobody, however often the event
// loop runs; the epoch barrier forgets what was asked.
func TestParkedReadSolicitsOneNopPerBlockingGatekeeper(t *testing.T) {
	r := newRig(t, 2)
	gk1 := r.f.Endpoint(transport.GatekeeperAddr(1))
	mgr := r.f.Endpoint("mgr")
	c1 := core.NewVectorClock(1, 2, 0)
	nudge := func() { // events that run the event loop and change nothing
		for i := 0; i < 3; i++ {
			mgr.Send(transport.ShardAddr(0), wire.Heartbeat{From: mgr.Addr()})
		}
	}
	exactlyOne := func(when string, floor ...core.Timestamp) {
		t.Helper()
		for gk, ep := range []transport.Endpoint{r.drv, gk1} {
			reqs := nopRequests(ep, 1)
			if len(reqs) != 1 {
				t.Fatalf("%s: gatekeeper %d got %d NopRequests, want 1: %+v", when, gk, len(reqs), reqs)
			}
			if reqs[0].From != transport.ShardAddr(0) {
				t.Fatalf("%s: request from %q", when, reqs[0].From)
			}
			for _, f := range floor {
				if !f.PointwiseLE(reqs[0].TS) {
					t.Fatalf("%s: request %v to gatekeeper %d is not past %v", when, reqs[0].TS, gk, f)
				}
			}
		}
	}
	hops := func(qid uint64, readTS core.Timestamp) wire.ProgHops {
		return wire.ProgHops{QID: core.ID{Counter: qid}, TS: readTS, ReadTS: readTS, Coordinator: r.drv.Addr(),
			Hops: []wire.Hop{{ID: 1, Vertex: "v", Program: "get_node"}}}
	}

	head := r.sendTx(graph.Op{Kind: graph.OpCreateVertex, Vertex: "v"}) // blocked: gk1 is silent
	read := c1.Tick()                                                   // concurrent with head
	r.drv.Send(transport.ShardAddr(0), hops(1, read))
	nudge()
	exactlyOne("parked read", read, head)

	r.drv.Send(transport.ShardAddr(0), hops(2, read)) // covered by the outstanding requests
	nudge()
	for gk, ep := range []transport.Endpoint{r.drv, gk1} {
		if reqs := nopRequests(ep, 0); len(reqs) != 0 {
			t.Fatalf("covered read: gatekeeper %d got %+v", gk, reqs)
		}
	}

	enterEpoch(t, mgr, 1) // applies head; both reads stay parked and ask again
	nudge()
	exactlyOne("after the epoch barrier", read)

	// The answers: one NOP from each gatekeeper in the new epoch.
	r.clock.AdvanceEpoch(1)
	r.seq.Reset()
	c1.AdvanceEpoch(1)
	r.sendNop()
	gk1.Send(transport.ShardAddr(0), wire.Nop{TS: c1.Tick(), Seq: 1})
	r.waitStats(func(s Stats) bool { return s.ProgBatches == 2 })
}
