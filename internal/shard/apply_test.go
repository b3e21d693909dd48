package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
	"weaver/internal/workload"
)

// newBareShard builds a shard whose event loop is NOT started, so tests
// can drive head selection directly against hand-loaded queues.
func newBareShard(t *testing.T, gks int) *Shard {
	t.Helper()
	f := transport.NewFabric()
	return New(Config{ID: 0, NumGatekeepers: gks},
		f.Endpoint(transport.ShardAddr(0)), nil, oracle.NewService(), nodeprog.NewRegistry(), partition.NewHash(1))
}

// TestSelectBatchKeepsConflictOrder checks that conflicting write-sets from
// different gatekeepers leave the queues in their refined timestamp order:
// the sequence the event loop pops must agree with the shard's own order()
// relation on every pair that shares a vertex.
func TestSelectBatchKeepsConflictOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		gks := 2 + r.Intn(2)
		s := newBareShard(t, gks)
		clocks := make([]*core.VectorClock, gks)
		for i := range clocks {
			clocks[i] = core.NewVectorClock(i, gks, 0)
		}
		type labeled struct {
			ts core.Timestamp
			v  graph.VertexID
		}
		var all []labeled
		for gk := 0; gk < gks; gk++ {
			n := 2 + r.Intn(6)
			for i := 0; i < n; i++ {
				if r.Intn(4) == 0 {
					clocks[gk].Observe(clocks[r.Intn(gks)].Peek())
				}
				ts := clocks[gk].Tick()
				v := graph.VertexID(fmt.Sprintf("v%d", r.Intn(2))) // tiny universe: heavy conflicts
				s.queues[gk] = append(s.queues[gk], queued{ts: ts, ops: []graph.Op{{Kind: graph.OpSetVertexProp, Vertex: v, Key: "k"}}})
				all = append(all, labeled{ts, v})
			}
		}
		for gk := 0; gk < gks; gk++ {
			for o := 0; o < gks; o++ {
				clocks[gk].Observe(clocks[o].Peek())
			}
		}
		for gk := 0; gk < gks; gk++ {
			s.frontier[gk] = clocks[gk].Tick()
		}
		// Pop head by head, as pump does, recording each tx's position.
		pos := make(map[core.ID]int)
		for h, ok := s.nextExecutable(); ok; h, ok = s.nextExecutable() {
			pos[h.ts.ID()] = len(pos)
		}
		if len(pos) != len(all) {
			t.Fatalf("trial %d: drained %d of %d transactions", trial, len(pos), len(all))
		}
		// Conflicting pairs must be popped consistently with the shard's
		// order relation (vector clock + cached oracle).
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				a, b := all[i], all[j]
				if a.v != b.v {
					continue
				}
				pa, pb := pos[a.ts.ID()], pos[b.ts.ID()]
				switch s.order(a.ts, b.ts) {
				case core.Before:
					if pa > pb {
						t.Fatalf("trial %d: %v before %v but applied after", trial, a.ts, b.ts)
					}
				case core.After:
					if pb > pa {
						t.Fatalf("trial %d: %v before %v but applied after", trial, b.ts, a.ts)
					}
				}
			}
		}
	}
}

// pagedApplyRun drives one seeded random transaction stream through a shard
// the way a single gatekeeper would — each write-set reaches the backing
// store before it is forwarded — with a GC round every few transactions,
// and returns the shard (stopped), its stats, and every vertex the stream
// named. maxVertices > 0 turns demand paging on, so those GC rounds evict.
func pagedApplyRun(t *testing.T, seed int64, maxVertices int) (*Shard, Stats, []graph.VertexID) {
	t.Helper()
	const universe, txs, gcEvery = 24, 400, 5
	store := kvstore.New()
	f := transport.NewFabric()
	sh := New(Config{ID: 0, NumGatekeepers: 1, MaxVertices: maxVertices, Indexes: []index.Spec{{Key: "city"}}},
		f.Endpoint(transport.ShardAddr(0)), kvstore.AsBacking(store), oracle.NewService(), nodeprog.NewRegistry(), partition.NewHash(1))
	sh.Start()
	t.Cleanup(sh.Stop)
	drv := f.Endpoint(transport.GatekeeperAddr(0))
	clock := core.NewVectorClock(0, 1, 0)
	seq := transport.NewSequencer()
	r := rand.New(rand.NewSource(seed))

	ids := make([]graph.VertexID, universe)
	for i := range ids {
		ids[i] = graph.VertexID(fmt.Sprintf("v%d", i))
	}
	recs := make(map[graph.VertexID]*graph.VertexRecord) // the store's view, as the gatekeeper keeps it
	live := func(v graph.VertexID) bool { return recs[v] != nil && !recs[v].Deleted }
	for n := 1; n <= txs; n++ {
		ts := clock.Tick()
		var ops []graph.Op
		touched := make(map[graph.VertexID]bool)
		for vs := 1 + r.Intn(2); vs > 0; vs-- {
			v := ids[r.Intn(universe)]
			touched[v] = true
			for k := 1 + r.Intn(4); k > 0; k-- {
				op := graph.Op{Vertex: v}
				rec := recs[v]
				switch c := r.Intn(10); {
				case !live(v):
					op.Kind = graph.OpCreateVertex
					recs[v] = graph.NewVertexRecord(v, 0)
				case c == 0:
					op.Kind = graph.OpDeleteVertex
					rec.Deleted, rec.Props, rec.Edges = true, map[string]string{}, map[graph.EdgeID]graph.EdgeRecord{}
				case c <= 3:
					op.Kind, op.Key, op.Value = graph.OpSetVertexProp, "city", fmt.Sprintf("c%d", r.Intn(4))
					rec.Props[op.Key] = op.Value
				case c == 4:
					op.Kind, op.Key = graph.OpDelVertexProp, "city"
					delete(rec.Props, op.Key)
				case c <= 6 || len(rec.Edges) == 0:
					op.Kind, op.Edge, op.To = graph.OpCreateEdge, graph.MakeEdgeID(ts.ID(), len(ops)), ids[r.Intn(universe)]
					rec.Edges[op.Edge] = graph.EdgeRecord{To: op.To, Props: map[string]string{}}
				default:
					for e := range rec.Edges { // any edge: pick the smallest ID, map order is not seeded
						if op.Edge == "" || e < op.Edge {
							op.Edge = e
						}
					}
					if c == 7 {
						op.Kind = graph.OpDeleteEdge
						delete(rec.Edges, op.Edge)
					} else {
						op.Kind, op.Key, op.Value = graph.OpSetEdgeProp, "w", fmt.Sprint(n)
						rec.Edges[op.Edge].Props[op.Key] = op.Value
					}
				}
				ops = append(ops, op)
			}
		}
		var puts []kvstore.KV
		for v := range touched {
			recs[v].LastTS = ts
			puts = append(puts, kvstore.KV{Key: graph.VertexKey(v), Value: graph.EncodeRecord(recs[v])})
		}
		store.BulkPut(puts)
		drv.Send(transport.ShardAddr(0), wire.TxForward{TS: ts, Seq: seq.Next(transport.ShardAddr(0)), Ops: ops})
		if n%gcEvery == 0 || n == txs {
			// A GC round at the last applied timestamp: every vertex not
			// written by this very transaction becomes evictable.
			for deadline := time.Now().Add(5 * time.Second); sh.Stats().TxExecuted < uint64(n); {
				if time.Now().After(deadline) {
					t.Fatalf("stalled at %+v (seed %d)", sh.Stats(), seed)
				}
				time.Sleep(50 * time.Microsecond)
			}
			drv.Send(transport.ShardAddr(0), wire.GCWatermark{TS: ts})
		}
	}
	sh.Stop()
	return sh, sh.Stats(), ids
}

// TestPagedApplyMatchesResidentApply runs the same stream — multi-op
// transactions hitting one vertex several times, creates, deletes and
// recreates, edge operations, an indexed property — through a shard that
// pages (a cap far below the vertex count, so GC rounds evict between
// transactions and writes fault vertices back in mid-transaction) and
// through one that keeps everything resident. Every index lookup and every
// vertex view at the final timestamp must agree.
func TestPagedApplyMatchesResidentApply(t *testing.T) {
	seed := workload.TestSeed(t)
	paged, pst, ids := pagedApplyRun(t, seed, 4)
	resident, rst, _ := pagedApplyRun(t, seed, 0)
	if pst.ApplyErrors != 0 || rst.ApplyErrors != 0 {
		t.Fatalf("apply errors: paged %+v resident %+v (seed %d)", pst, rst, seed)
	}
	if pst.TxExecuted != rst.TxExecuted || pst.OpsApplied != rst.OpsApplied {
		t.Fatalf("paged %+v != resident %+v (seed %d)", pst, rst, seed)
	}
	if pst.PagedOut == 0 || pst.PagedIn == 0 {
		t.Fatalf("paging never engaged: %+v (seed %d)", pst, seed)
	}
	all := func(core.Timestamp) bool { return true } // after everything applied
	for c := 0; c < 4; c++ {
		city := fmt.Sprintf("c%d", c)
		got, _ := paged.idx.Lookup("city", city, all)
		want, _ := resident.idx.Lookup("city", city, all)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("lookup city=%s: paged %v resident %v (seed %d)", city, got, want, seed)
		}
	}
	view := func(s *Shard, v graph.VertexID) *graph.VertexView {
		if !s.g.Has(v) && s.paging {
			s.pageIn(v) // the event loop has exited; the test owns the shard
		}
		vv, ok := s.g.At(all).Vertex(v)
		if !ok {
			return nil
		}
		slices.SortFunc(vv.Edges, func(a, b graph.EdgeView) int { return strings.Compare(string(a.ID), string(b.ID)) })
		if len(vv.Edges) == 0 {
			// A resident vertex whose edges were all deleted fills an
			// empty Edges, a paged-in record without edges a nil one.
			vv.Edges = nil
		}
		return vv
	}
	for _, v := range ids {
		if got, want := view(paged, v), view(resident, v); !reflect.DeepEqual(got, want) {
			t.Fatalf("vertex %s: paged %+v resident %+v (seed %d)", v, got, want, seed)
		}
	}
}

// A vertex demand paging installs carries the backing store's latest
// record, which may include a write W newer than a reader minted before it
// — whether W was never forwarded (the read faults the vertex in) or was
// forwarded and applied (its own fault-in reloaded the vertex). The vertex
// existed at the reader's timestamp, so the read must be refused with the
// typed stale-snapshot code, never answered "no such vertex".
func TestPagedInRecordNewerThanReaderIsRefused(t *testing.T) {
	for _, forwarded := range []bool{false, true} {
		t.Run(fmt.Sprintf("forwarded=%v", forwarded), func(t *testing.T) {
			r := newStoreRig(t, Config{NumGatekeepers: 1, MaxVertices: 1}, kvstore.New())
			var ops []graph.Op
			var recs []*graph.VertexRecord
			for i := 0; i < 6; i++ {
				v := graph.VertexID(fmt.Sprintf("v%d", i))
				ops = append(ops, graph.Op{Kind: graph.OpCreateVertex, Vertex: v},
					graph.Op{Kind: graph.OpSetVertexProp, Vertex: v, Key: "k", Value: "old"})
				rec := graph.NewVertexRecord(v, 0)
				rec.Props["k"] = "old"
				recs = append(recs, rec)
			}
			r.commit(true, ops, recs...)
			// A later write elsewhere, then a GC round at it: the six are
			// cold and over the cap.
			last := r.commit(true, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "hot"}}, graph.NewVertexRecord("hot", 0))
			r.waitStats(func(s Stats) bool { return s.TxExecuted == 2 })
			r.drv.Send(transport.ShardAddr(0), wire.GCWatermark{TS: last})
			r.waitStats(func(s Stats) bool { return s.PagedOut == 6 })

			reader := r.clock.Tick()
			recs[0].Props["k"] = "new"
			r.commit(forwarded, []graph.Op{{Kind: graph.OpSetVertexProp, Vertex: "v0", Key: "k", Value: "new"}}, recs[0])
			if forwarded {
				r.waitStats(func(s Stats) bool { return s.TxExecuted == 3 })
			}
			r.sendNop()
			if d := r.getNode(reader, "v0"); d.ErrCode != wire.ErrCodeStaleSnapshot {
				t.Fatalf("read below the paged-in record answered instead of refused: %+v", d)
			}
		})
	}
}

// A paged-out vertex deleted after a reader was minted pages back in as a
// tombstone — whether the delete was forwarded (its own fault-in reloads
// the vertex) or not (the read faults it in). The vertex existed at the
// reader's timestamp, so the read must be refused, never answered "no such
// vertex".
func TestPagedOutVertexDeletedAfterReaderIsRefused(t *testing.T) {
	for _, forwarded := range []bool{false, true} {
		t.Run(fmt.Sprintf("forwarded=%v", forwarded), func(t *testing.T) {
			r := newStoreRig(t, Config{NumGatekeepers: 1, MaxVertices: 1}, kvstore.New())
			rec := graph.NewVertexRecord("v0", 0)
			r.commit(true, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "v0"}}, rec)
			// A later write elsewhere, then a GC round at it: v0 is cold and
			// over the cap.
			last := r.commit(true, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "hot"}}, graph.NewVertexRecord("hot", 0))
			r.waitStats(func(s Stats) bool { return s.TxExecuted == 2 })
			r.drv.Send(transport.ShardAddr(0), wire.GCWatermark{TS: last})
			r.waitStats(func(s Stats) bool { return s.PagedOut == 1 })

			reader := r.clock.Tick()
			rec.Deleted, rec.Props = true, map[string]string{}
			r.commit(forwarded, []graph.Op{{Kind: graph.OpDeleteVertex, Vertex: "v0"}}, rec)
			r.sendNop()
			if d := r.getNode(reader, "v0"); d.ErrCode != wire.ErrCodeStaleSnapshot {
				t.Fatalf("read below the paged-in tombstone answered instead of refused: %+v", d)
			}
			if st := r.sh.Stats(); st.ApplyErrors != 0 {
				t.Fatalf("apply errors: %+v", st)
			}
		})
	}
}

// A paged-in record covers every write the oracle orders at or before its
// stamp, not only the faulting transaction's. Gatekeeper 0 commits t1 (k=a)
// then t3 (k=c) on a paged-out vertex; gatekeeper 1's tb (k=b) is
// vclock-concurrent with both, ordered after both and committed last, so
// tb's record is the store's when t1 faults the vertex in. t3 must not
// re-apply over it.
func TestPagedInRecordCoversConcurrentLaterCommit(t *testing.T) {
	r := newStoreRig(t, Config{NumGatekeepers: 2, MaxVertices: 1}, kvstore.New())
	gk1 := r.f.Endpoint(transport.GatekeeperAddr(1))
	c1, seq1 := core.NewVectorClock(1, 2, 0), transport.NewSequencer()
	gk1Send := func(ops []graph.Op, ts core.Timestamp) {
		if ops == nil {
			gk1.Send(transport.ShardAddr(0), wire.Nop{TS: ts, Seq: seq1.Next(transport.ShardAddr(0))})
		} else {
			gk1.Send(transport.ShardAddr(0), wire.TxForward{TS: ts, Seq: seq1.Next(transport.ShardAddr(0)), Ops: ops})
		}
	}
	rec := graph.NewVertexRecord("v", 0)
	r.commit(true, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "v"}}, rec)
	// A later write elsewhere, then a GC round at it: v is cold and over
	// the cap.
	last := r.commit(true, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "hot"}}, graph.NewVertexRecord("hot", 0))
	c1.Observe(last)
	gk1Send(nil, c1.Tick())
	r.waitStats(func(s Stats) bool { return s.TxExecuted == 2 })
	r.drv.Send(transport.ShardAddr(0), wire.GCWatermark{TS: last})
	r.waitStats(func(s Stats) bool { return s.PagedOut == 1 })

	tb := c1.Tick() // concurrent with t1 and t3
	set := func(val string) []graph.Op {
		rec.Props["k"] = val
		return []graph.Op{{Kind: graph.OpSetVertexProp, Vertex: "v", Key: "k", Value: val}}
	}
	t1 := r.commit(true, set("a"), rec)
	t3 := r.commit(true, set("c"), rec)
	for _, ts := range []core.Timestamp{t1, t3} {
		if err := r.orc.AssignOrder(oracle.EventOf(ts), oracle.EventOf(tb)); err != nil {
			t.Fatal(err)
		}
	}
	ops := set("b")
	rec.LastTS = tb
	r.store.BulkPut([]kvstore.KV{{Key: graph.VertexKey("v"), Value: graph.EncodeRecord(rec)}})
	gk1Send(ops, tb)
	r.clock.Observe(tb)
	r.sendNop()
	r.waitStats(func(s Stats) bool { return s.TxExecuted == 5 })

	reader := r.clock.Tick()
	r.sendNop()
	c1.Observe(r.clock.Peek())
	gk1Send(nil, c1.Tick())
	d := r.getNode(reader, "v")
	var nd nodeprog.NodeData
	if d.Err != "" || len(d.Results) != 1 || nodeprog.Decode(d.Results[0], &nd) != nil || nd.Props["k"] != "b" {
		t.Fatalf("get_node(v) = %d results, err %q, props %v; want k=b", len(d.Results), d.Err, nd.Props)
	}
	if st := r.sh.Stats(); st.ApplyErrors != 0 {
		t.Fatalf("apply errors: %+v", st)
	}
}
