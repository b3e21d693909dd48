package gatekeeper

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"weaver/internal/cluster"
	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/kvstore"
	"weaver/internal/nodeprog"
	"weaver/internal/oracle"
	"weaver/internal/partition"
	"weaver/internal/shard"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

type rig struct {
	gk  *Gatekeeper
	kv  *kvstore.Store
	orc *oracle.Service
	f   *transport.Fabric
}

func newRig(t *testing.T, gks, shards int) *rig {
	t.Helper()
	f := transport.NewFabric()
	kv := kvstore.New()
	orc := oracle.NewService()
	// Shards just need mailboxes so sends succeed.
	for i := 0; i < shards; i++ {
		f.Endpoint(transport.ShardAddr(i))
	}
	gk := New(Config{
		ID: 0, NumGatekeepers: gks, NumShards: shards,
		AnnouncePeriod: 200 * time.Microsecond,
		NopPeriod:      100 * time.Microsecond,
	}, f.Endpoint(transport.GatekeeperAddr(0)), kvstore.AsBacking(kv), orc, partition.NewHash(shards))
	clear(gk.awaiting) // bare mailboxes never answer the hello; start the NOP stream regardless
	gk.Start()
	t.Cleanup(gk.Stop)
	return &rig{gk: gk, kv: kv, orc: orc, f: f}
}

func TestCommitWritesRecords(t *testing.T) {
	r := newRig(t, 1, 2)
	res, err := r.gk.CommitTx(nil, []graph.Op{
		{Kind: graph.OpCreateVertex, Vertex: "v"},
		{Kind: graph.OpSetVertexProp, Vertex: "v", Key: "name", Value: "x"},
		{Kind: graph.OpCreateEdge, Vertex: "v", Edge: "~0", To: "w"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) != 1 {
		t.Fatalf("edge map %v", res.Edges)
	}
	rec, _, ok, err := r.gk.ReadVertex("v")
	if err != nil || !ok {
		t.Fatalf("ReadVertex: %v %v", ok, err)
	}
	if rec.Props["name"] != "x" || len(rec.Edges) != 1 {
		t.Fatalf("record %+v", rec)
	}
	if !rec.LastTS.Equals(res.TS) {
		t.Fatalf("lastTS %v != commit ts %v", rec.LastTS, res.TS)
	}
	if rec.Shard != partition.NewHash(2).Lookup("v") {
		t.Fatal("record shard assignment wrong")
	}
}

func TestCommitValidatesReads(t *testing.T) {
	r := newRig(t, 1, 1)
	if _, err := r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "v"}}); err != nil {
		t.Fatal(err)
	}
	_, ver, _, _ := r.gk.ReadVertex("v")
	// Concurrent change invalidates the recorded read.
	if _, err := r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpSetVertexProp, Vertex: "v", Key: "k", Value: "1"}}); err != nil {
		t.Fatal(err)
	}
	_, err := r.gk.CommitTx([]ReadCheck{{Key: graph.VertexKey("v"), Version: ver}},
		[]graph.Op{{Kind: graph.OpSetVertexProp, Vertex: "v", Key: "k", Value: "2"}})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("stale read must conflict: %v", err)
	}
}

// TestWriterInValidateLoadWindowConflicts closes the validate→load()
// window deterministically: writer A's ReadChecks pass, writer B deletes
// the vertex and commits before A loads the record, and A must fail with
// ErrConflict (retry on fresh reads) — never ErrInvalid, which would blame
// the caller for state it never read.
func TestWriterInValidateLoadWindowConflicts(t *testing.T) {
	r := newRig(t, 1, 1)
	if _, err := r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "v"}}); err != nil {
		t.Fatal(err)
	}
	_, ver, _, _ := r.gk.ReadVertex("v")

	var errB error
	r.gk.testHookValidated = func() {
		r.gk.testHookValidated = nil // B's own commit passes straight through
		_, errB = r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpDeleteVertex, Vertex: "v"}})
	}
	_, errA := r.gk.CommitTx([]ReadCheck{{Key: graph.VertexKey("v"), Version: ver}},
		[]graph.Op{{Kind: graph.OpSetVertexProp, Vertex: "v", Key: "k", Value: "1"}})
	if errB != nil {
		t.Fatalf("writer B (in the window) must commit: %v", errB)
	}
	if !errors.Is(errA, ErrConflict) || errors.Is(errA, ErrInvalid) {
		t.Fatalf("writer A: got %v, want ErrConflict", errA)
	}
	if rec, _, ok, _ := r.gk.ReadVertex("v"); ok && !rec.Deleted {
		t.Fatalf("B's delete lost: %+v", rec)
	}
}

// failReadBacking is a store whose point reads fail, as a remote store's do
// when it times out.
type failReadBacking struct{ kvstore.Backing }

var errStoreDown = errors.New("store did not answer")

func (failReadBacking) GetVersioned(string) ([]byte, uint64, bool, error) {
	return nil, 0, false, errStoreDown
}

// A failed store read is never "absent": ReadVertex returns the error
// instead of "no such vertex", and the planner's marker probe keeps the
// shard instead of pruning one that may hold matches.
func TestFailedStoreReadIsNeverAbsent(t *testing.T) {
	f := transport.NewFabric()
	gk := New(Config{ID: 0, NumGatekeepers: 1, NumShards: 1}, f.Endpoint(transport.GatekeeperAddr(0)),
		failReadBacking{kvstore.AsBacking(kvstore.New())}, oracle.NewService(), partition.NewHash(1))
	if rec, _, ok, err := gk.ReadVertex("v"); !errors.Is(err, errStoreDown) || ok || rec != nil {
		t.Fatalf("ReadVertex over a failing store: rec=%+v ok=%v err=%v, want %v", rec, ok, err, errStoreDown)
	}
	if !gk.HasValue("city", "ithaca", 0) {
		t.Fatal("HasValue pruned a shard on a failed marker read")
	}
}

// seedGK1Update stores vertex v with a last update stamped by gk1, which
// gk0 has not seen: concurrent with every timestamp gk0 mints until gk1's
// clock reaches it.
func seedGK1Update(t *testing.T, r *rig) core.Timestamp {
	t.Helper()
	otherTS := core.NewVectorClock(1, 2, 0).Tick()
	rec := graph.NewVertexRecord("v", 0)
	rec.LastTS = otherTS
	seed := r.kv.Begin()
	if err := seed.Put(graph.VertexKey("v"), graph.EncodeRecord(rec)); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	return otherTS
}

func TestCommitRegistersConcurrentOrderWithOracle(t *testing.T) {
	r := newRig(t, 2, 1)
	otherTS := seedGK1Update(t, r)

	res, err := r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpSetVertexProp, Vertex: "v", Key: "k", Value: "1"}})
	if err != nil {
		t.Fatal(err)
	}
	// The oracle must now hold otherTS ≺ res.TS.
	o, err := r.orc.Ordered(oracle.EventOf(otherTS), oracle.EventOf(res.TS))
	if err != nil || o != core.Before {
		t.Fatalf("order not registered: %v %v", o, err)
	}
	if r.gk.Stats().OracleAssigns != 1 {
		t.Fatalf("stats: %+v", r.gk.Stats())
	}
}

// The proactive half of §6.5's trade-off: once gk1's announce has reached
// gk0, the same concurrent last update is vector-clock ordered before gk0's
// next timestamp, and the commit needs no oracle assign at all.
func TestAnnouncedUpdateCommitsWithoutOracle(t *testing.T) {
	r := newRig(t, 2, 1)
	otherTS := seedGK1Update(t, r)

	gk1 := r.f.Endpoint(transport.GatekeeperAddr(1))
	if err := gk1.Send(transport.GatekeeperAddr(0), wire.Announce{TS: otherTS}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !otherTS.PointwiseLE(r.gk.Now()) {
		if time.Now().After(deadline) {
			t.Fatalf("announce %v never observed; clock %v", otherTS, r.gk.Now())
		}
		time.Sleep(100 * time.Microsecond)
	}

	res, err := r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpSetVertexProp, Vertex: "v", Key: "k", Value: "1"}})
	if err != nil {
		t.Fatal(err)
	}
	if n := r.gk.Stats().OracleAssigns; n != 0 {
		t.Fatalf("announced update still cost %d oracle assigns", n)
	}
	if !otherTS.Before(res.TS) {
		t.Fatalf("commit %v not vector-clock after announced %v", res.TS, otherTS)
	}
}

func TestInvalidOpsAbortOnBackingStore(t *testing.T) {
	r := newRig(t, 1, 1)
	cases := [][]graph.Op{
		{{Kind: graph.OpDeleteVertex, Vertex: "ghost"}},
		{{Kind: graph.OpCreateEdge, Vertex: "ghost", Edge: "~0", To: "x"}},
		{{Kind: graph.OpDeleteEdge, Vertex: "ghost", Edge: "e"}},
		{{Kind: graph.OpSetVertexProp, Vertex: "ghost", Key: "k"}},
		{{Kind: graph.OpCreateVertex, Vertex: "dup"}, {Kind: graph.OpCreateVertex, Vertex: "dup"}},
	}
	for i, ops := range cases {
		if _, err := r.gk.CommitTx(nil, ops); !errors.Is(err, ErrInvalid) {
			t.Errorf("case %d: %v", i, err)
		}
	}
	if st := r.gk.Stats(); st.TxInvalid != uint64(len(cases)) {
		t.Fatalf("stats: %+v", st)
	}
}

func TestTimestampsMonotonicPerGatekeeper(t *testing.T) {
	r := newRig(t, 1, 1)
	var prev core.Timestamp
	for i := 0; i < 10; i++ {
		res, err := r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: graph.VertexID(rune('a' + i))}})
		if err != nil {
			t.Fatal(err)
		}
		if !prev.Zero() && !prev.Before(res.TS) {
			t.Fatalf("timestamps regressed: %v then %v", prev, res.TS)
		}
		prev = res.TS
	}
}

func TestAnnounceAndNopLoopsRun(t *testing.T) {
	r := newRig(t, 2, 2)
	// An announce counts only once delivered, so gatekeeper 1 needs a mailbox.
	r.f.Endpoint(transport.GatekeeperAddr(1))
	deadline := time.Now().Add(5 * time.Second)
	st := r.gk.Stats()
	for (st.Announces == 0 || st.Nops == 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		st = r.gk.Stats()
	}
	if st.Nops == 0 {
		t.Error("nop loop idle")
	}
	if st.Announces == 0 {
		t.Error("announce loop idle")
	}
}

func TestGCAggregationTriggersOracleGC(t *testing.T) {
	f := transport.NewFabric()
	kv := kvstore.New()
	orc := oracle.NewService()
	shard0 := f.Endpoint(transport.ShardAddr(0))
	gk := New(Config{
		ID: 0, NumGatekeepers: 2, NumShards: 1,
		GCPeriod: time.Millisecond,
	}, f.Endpoint(transport.GatekeeperAddr(0)), kvstore.AsBacking(kv), orc, partition.NewHash(1))
	clear(gk.awaiting) // as in newRig: the NOP loop's clock ticks drive gk0's own GC report
	gk.Start()
	t.Cleanup(gk.Stop)

	// Register two old events at the oracle.
	a := oracle.EventOf(core.Timestamp{Epoch: 0, Owner: 0, Clock: []uint64{1, 0}})
	b := oracle.EventOf(core.Timestamp{Epoch: 0, Owner: 1, Clock: []uint64{0, 1}})
	orc.QueryOrder(a, b, core.Before)

	// Simulate gk1 (announce + GC report) and shard 0, which answers each
	// cluster watermark with its apply-progress bound: oracle GC also waits
	// for every shard, so that orders of committed-but-unapplied
	// transactions are never forgotten. gk0's own report comes from its GC
	// loop.
	ep1 := f.Endpoint(transport.GatekeeperAddr(1))
	future := core.Timestamp{Epoch: 0, Owner: 1, Clock: []uint64{100, 100}}
	deadline := time.Now().Add(5 * time.Second)
	for orc.Stats().Events > 0 {
		ep1.Send(transport.GatekeeperAddr(0), wire.Announce{TS: future})
		ep1.Send(transport.GatekeeperAddr(0), wire.GCReport{GK: 1, TS: future, OracleTS: future})
		for m, ok := shard0.Next(); ok; m, ok = shard0.Next() {
			if _, ok := m.Payload.(wire.GCWatermark); ok {
				shard0.Send(transport.GatekeeperAddr(0), wire.ShardGCReport{Shard: 0, TS: future})
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("oracle never GCed: %+v", orc.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPauseBlocksCommits(t *testing.T) {
	r := newRig(t, 1, 1)
	r.gk.Pause()
	done := make(chan error, 1)
	go func() {
		_, err := r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "v"}})
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("commit proceeded through a paused gatekeeper")
	case <-time.After(5 * time.Millisecond):
	}
	r.gk.Resume()
	if err := <-done; err != nil {
		t.Fatalf("commit after resume: %v", err)
	}
}

// The barrier's pause is taken off the receive loop: while a fence (bulk
// load, migration batch) holds the pause lock and waits for TxApplied acks,
// the loop must keep draining them, the barrier's Pause is acked only once
// the lock is really held, and an Enter that overtakes it never unlocks
// the fence's pause.
func TestBarrierPauseWaitsBehindFenceOffLoop(t *testing.T) {
	r := newRig(t, 1, 1)
	mgr := r.f.Endpoint(cluster.Addr)
	phase := func(epoch uint64, p uint8) {
		mgr.Send(transport.GatekeeperAddr(0), wire.EpochChange{Epoch: epoch, Phase: p, From: cluster.Addr})
	}
	acked := func(epoch uint64, p uint8, within time.Duration) bool {
		deadline := time.After(within)
		for {
			for msg, ok := mgr.Next(); ok; msg, ok = mgr.Next() {
				if a, ok := msg.Payload.(wire.EpochAck); ok && a.Epoch == epoch && a.Phase == p {
					return true
				}
			}
			select {
			case <-mgr.Recv():
			case <-deadline:
				return false
			}
		}
	}
	res, err := r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "v"}})
	if err != nil {
		t.Fatal(err)
	}

	r.gk.Pause() // the fence
	phase(1, wire.EpochPhasePause)
	if acked(1, wire.EpochPhasePause, 20*time.Millisecond) {
		t.Fatal("Pause acked while a fence still held the lock")
	}
	// The fence's Quiesce depends on the loop still running.
	shard := r.f.Endpoint("shard/9")
	shard.Send(transport.GatekeeperAddr(0), wire.TxApplied{TS: res.TS, Count: 1})
	if err := r.gk.Quiesce(2 * time.Second); err != nil {
		t.Fatalf("receive loop blocked behind the barrier's pause: %v", err)
	}
	// The manager gives up on the pause: its Enter must leave the fence's
	// lock alone.
	phase(1, wire.EpochPhaseEnter)
	if !acked(1, wire.EpochPhaseEnter, 2*time.Second) {
		t.Fatal("Enter never acked")
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "w"}})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("Enter unlocked a pause the barrier never took (commit err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	r.gk.Resume()
	if err := <-done; err != nil {
		t.Fatalf("commit after the fence: %v", err)
	}

	// A full barrier with nothing in the way: Pause is acked once held,
	// commits stay out until Enter, and resume in the new epoch.
	phase(2, wire.EpochPhasePause)
	if !acked(2, wire.EpochPhasePause, 2*time.Second) {
		t.Fatal("Pause never acked")
	}
	go func() {
		res, err := r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "x"}})
		if err == nil && res.TS.Epoch != 2 {
			err = fmt.Errorf("commit stamped %v, want epoch 2", res.TS)
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("commit went through the barrier's pause (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	phase(2, wire.EpochPhaseEnter)
	if !acked(2, wire.EpochPhaseEnter, 2*time.Second) {
		t.Fatal("Enter never acked")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestEnterEpochRestartsClock(t *testing.T) {
	r := newRig(t, 1, 1)
	res, err := r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	r.gk.AdvanceEpoch(3)
	res2, err := r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.TS.Epoch != 3 || res2.TS.Counter() != 1 {
		t.Fatalf("clock not restarted: %v", res2.TS)
	}
	if !res.TS.Before(res2.TS) {
		t.Fatal("epoch ordering broken")
	}
}

// TestQuiesceWaitsForApplyAcks checks the apply-fence accounting: a commit
// leaves one outstanding apply per involved shard, Quiesce blocks until
// the shards' TxApplied acks arrive (in any order — batch completion is
// unordered), and stale acks never drive the counter negative.
func TestQuiesceWaitsForApplyAcks(t *testing.T) {
	r := newRig(t, 1, 2)
	// Two vertices on different shards: two outstanding applies.
	h := partition.NewHash(2)
	var va, vb graph.VertexID
	for i := 0; ; i++ {
		v := graph.VertexID(fmt.Sprintf("v%d", i))
		if va == "" && h.Lookup(v) == 0 {
			va = v
		} else if vb == "" && h.Lookup(v) == 1 {
			vb = v
		}
		if va != "" && vb != "" {
			break
		}
	}
	res, err := r.gk.CommitTx(nil, []graph.Op{
		{Kind: graph.OpCreateVertex, Vertex: va},
		{Kind: graph.OpCreateVertex, Vertex: vb},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.gk.Stats(); st.ApplyPending != 2 {
		t.Fatalf("want 2 outstanding applies, got %+v", st)
	}
	if err := r.gk.Quiesce(5 * time.Millisecond); err == nil {
		t.Fatal("quiesce succeeded with acks outstanding")
	}
	// Shards ack out of order relative to shard index.
	drv := r.f.Endpoint("fake-shard")
	drv.Send(transport.GatekeeperAddr(0), wire.TxApplied{TS: res.TS, Shard: 1})
	drv.Send(transport.GatekeeperAddr(0), wire.TxApplied{TS: res.TS, Shard: 0})
	if err := r.gk.Quiesce(3 * time.Second); err != nil {
		t.Fatalf("quiesce after acks: %v", err)
	}
	if st := r.gk.Stats(); st.ApplyPending != 0 || st.TxApplied != 2 {
		t.Fatalf("ack accounting wrong: %+v", st)
	}
	// A stale ack (e.g. forwarded by a pre-failover incarnation) clamps.
	drv.Send(transport.GatekeeperAddr(0), wire.TxApplied{TS: res.TS, Shard: 0})
	deadline := time.Now().Add(3 * time.Second)
	for r.gk.Stats().TxApplied != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("stale ack never processed: %+v", r.gk.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if st := r.gk.Stats(); st.ApplyPending != 0 {
		t.Fatalf("stale ack drove counter negative: %+v", st)
	}
	if err := r.gk.Quiesce(time.Second); err != nil {
		t.Fatalf("quiesce after stale ack: %v", err)
	}
}

// TestApplyAccountingIsEpochScoped checks the failover half of the apply
// fence: advancing the epoch (the §4.3 barrier drained every older
// forward) zeroes the outstanding count, and acks stamped with an earlier
// epoch never consume a current-epoch pending — so a Quiesce on a new
// incarnation cannot be satisfied by a predecessor's stragglers.
func TestApplyAccountingIsEpochScoped(t *testing.T) {
	r := newRig(t, 1, 1)
	res, err := r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "v"}})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.gk.Stats(); st.ApplyPending != 1 {
		t.Fatalf("want 1 pending, got %+v", st)
	}
	// Barrier: the outstanding old-epoch apply no longer counts.
	r.gk.AdvanceEpoch(5)
	if st := r.gk.Stats(); st.ApplyPending != 0 {
		t.Fatalf("epoch bump did not reset pending: %+v", st)
	}
	// New-epoch commit, then a stale old-epoch ack arrives first: it must
	// not consume the new pending.
	res2, err := r.gk.CommitTx(nil, []graph.Op{{Kind: graph.OpSetVertexProp, Vertex: "v", Key: "k", Value: "1"}})
	if err != nil {
		t.Fatal(err)
	}
	drv := r.f.Endpoint("fake-shard")
	drv.Send(transport.GatekeeperAddr(0), wire.TxApplied{TS: res.TS, Shard: 0}) // stale epoch
	deadline := time.Now().Add(3 * time.Second)
	for r.gk.Stats().TxApplied < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("stale ack never processed: %+v", r.gk.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := r.gk.Quiesce(5 * time.Millisecond); err == nil {
		t.Fatal("stale-epoch ack satisfied a current-epoch fence")
	}
	drv.Send(transport.GatekeeperAddr(0), wire.TxApplied{TS: res2.TS, Shard: 0})
	if err := r.gk.Quiesce(3 * time.Second); err != nil {
		t.Fatalf("quiesce after current-epoch ack: %v", err)
	}
}

// TestNopStreamWaitsForShard starts a gatekeeper before its shard is
// serving — the order processes of one deployment may come up in — and
// drives NOP ticks at it, first with no endpoint at all and then with an
// endpoint nobody is serving yet (a booting shard whose mailbox something
// else is draining). None of them may consume a stream sequence number:
// once the shard serves, its resequencer must see the stream from 1, or it
// waits behind the gap forever and the node program below times out.
func TestNopStreamWaitsForShard(t *testing.T) {
	f := transport.NewFabric()
	orc := oracle.NewService()
	dir := partition.NewHash(1)
	gk := New(Config{
		ID: 0, NumGatekeepers: 1, NumShards: 1,
		AnnouncePeriod: 200 * time.Microsecond,
		NopPeriod:      100 * time.Microsecond,
		ProgTimeout:    5 * time.Second,
	}, f.Endpoint(transport.GatekeeperAddr(0)), kvstore.AsBacking(kvstore.New()), orc, dir)
	gk.Start()
	t.Cleanup(gk.Stop)
	for i := 0; i < 10; i++ {
		gk.sendNops(gk.shards)
	}
	shardEp := f.Endpoint(transport.ShardAddr(0))
	for i := 0; i < 10; i++ {
		gk.sendNops(gk.shards)
		for {
			if _, ok := shardEp.Next(); !ok { // the boot-time reader discards
				break
			}
		}
	}
	if n := gk.Stats().Nops; n != 0 {
		t.Fatalf("%d NOPs sent before the shard serves", n)
	}

	sh := shard.New(shard.Config{ID: 0, NumGatekeepers: 1}, shardEp, nil, orc, nodeprog.NewRegistry(), dir)
	sh.Start()
	t.Cleanup(sh.Stop)

	if _, err := gk.CommitTx(nil, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "v"}}); err != nil {
		t.Fatal(err)
	}
	res, _, err := gk.RunProgram(core.Timestamp{}, "get_node", nil, []graph.VertexID{"v"})
	if err != nil || len(res) != 1 {
		t.Fatalf("node program after late shard start: %d results, %v", len(res), err)
	}
}

// A NopRequest is answered at once with one NOP, to the asking shard only:
// vclock-after the requested timestamp, the next number of that shard's
// stream, sent while a fence holds Pause too; and the asker, serving, no
// longer waits for a hello.
func TestNopRequestAnsweredWithOneNop(t *testing.T) {
	f := transport.NewFabric()
	shards := []transport.Endpoint{f.Endpoint(transport.ShardAddr(0)), f.Endpoint(transport.ShardAddr(1))}
	gk := New(Config{ID: 0, NumGatekeepers: 2, NumShards: 2}, f.Endpoint(transport.GatekeeperAddr(0)),
		kvstore.AsBacking(kvstore.New()), oracle.NewService(), partition.NewHash(2))
	nops := func(ep transport.Endpoint) []wire.Nop {
		var out []wire.Nop
		for m, ok := ep.Next(); ok; m, ok = ep.Next() {
			if n, ok := m.Payload.(wire.Nop); ok {
				out = append(out, n)
			}
		}
		return out
	}
	// ask delivers one request from shard 1 (the handler runs synchronously:
	// a request that blocked would fail the test, not hang it) and returns
	// the NOPs each shard received.
	ask := func(ts core.Timestamp) (toAsker, toOther []wire.Nop) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			gk.handle(transport.Message{From: shards[1].Addr(), Payload: wire.NopRequest{TS: ts, From: shards[1].Addr()}})
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("NopRequest handling blocked")
		}
		return nops(shards[1]), nops(shards[0])
	}
	check := func(when string, got []wire.Nop, past core.Timestamp, seq uint64) {
		t.Helper()
		if len(got) != 1 || got[0].Seq != seq || got[0].TS.Compare(past) != core.After {
			t.Fatalf("%s: got %+v, want one NOP with Seq %d after %v", when, got, seq, past)
		}
	}

	peer := core.Timestamp{Owner: 1, Clock: []uint64{0, 50}} // gk1's read: unseen here
	toAsker, toOther := ask(peer)
	check("first request", toAsker, peer, 1)
	if len(toOther) != 0 {
		t.Fatalf("shard 0 did not ask but got %+v", toOther)
	}
	if _, waiting := gk.awaiting[shards[1].Addr()]; waiting {
		t.Fatal("the asking shard still awaits a hello")
	}
	if _, waiting := gk.awaiting[shards[0].Addr()]; !waiting {
		t.Fatal("shard 0 left awaiting without answering")
	}

	// The periodic tick shares the stream: once shard 0 answers its hello,
	// it takes Seq 2 at shard 1, and the next answer Seq 3.
	gk.handle(transport.Message{Payload: wire.Heartbeat{From: shards[0].Addr()}})
	gk.sendNops(gk.shards)
	check("periodic tick", nops(shards[1]), peer, 2)
	nops(shards[0])

	gk.Pause()
	defer gk.Resume()
	later := core.Timestamp{Owner: 1, Clock: []uint64{0, 90}}
	toAsker, toOther = ask(later)
	check("request under Pause", toAsker, later, 3)
	if len(toOther) != 0 {
		t.Fatalf("shard 0 did not ask but got %+v", toOther)
	}
	if n := gk.Stats().Nops; n != 4 {
		t.Fatalf("Stats.Nops = %d, want 4 (two answers, one two-shard tick)", n)
	}
}
