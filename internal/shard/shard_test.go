package shard

import (
	"fmt"
	"testing"
	"time"

	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/index"
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
	drv   transport.Endpoint
	orc   oracle.Client
	clock *core.VectorClock
	seq   *transport.Sequencer
}

func newRig(t *testing.T, gks int) *rig {
	t.Helper()
	f := transport.NewFabric()
	orc := oracle.NewService()
	sh := New(Config{ID: 0, NumGatekeepers: gks},
		f.Endpoint(transport.ShardAddr(0)), nil, orc, nodeprog.NewRegistry(), partition.NewHash(1))
	sh.Start()
	t.Cleanup(sh.Stop)
	return &rig{
		t:     t,
		sh:    sh,
		drv:   f.Endpoint(transport.GatekeeperAddr(0)),
		orc:   orc,
		clock: core.NewVectorClock(0, gks, 0),
		seq:   transport.NewSequencer(),
	}
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
	r.drv.Send(transport.ShardAddr(0), wire.GCReport{GK: 0, TS: r.clock.Tick()})
	st := r.waitStats(func(s Stats) bool { return s.GCCollected >= 1 })
	if st.GCCollected != 1 {
		t.Fatalf("collected %d, want 1", st.GCCollected)
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
