package shard

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/nodeprog"
	"weaver/internal/oracle"
	"weaver/internal/partition"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// newBareShard builds a shard whose event loop is NOT started, so tests
// can drive selectBatch directly against hand-loaded queues.
func newBareShard(t *testing.T, gks, workers int) *Shard {
	t.Helper()
	f := transport.NewFabric()
	s := New(Config{ID: 0, NumGatekeepers: gks, Workers: workers},
		f.Endpoint(transport.ShardAddr(0)), nil, oracle.NewService(), nodeprog.NewRegistry(), partition.NewHash(1))
	return s
}

// randTxOps builds ops over a small vertex universe so footprints collide
// often.
func randTxOps(r *rand.Rand, universe int) []graph.Op {
	n := 1 + r.Intn(3)
	ops := make([]graph.Op, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, graph.Op{
			Kind:   graph.OpSetVertexProp,
			Vertex: graph.VertexID(fmt.Sprintf("v%d", r.Intn(universe))),
			Key:    "k",
			Value:  "x",
		})
	}
	return ops
}

// TestSelectBatchNeverBatchesConflicts property-checks the conflict
// detector inside batch selection: across random multi-gatekeeper queue
// states, no two transactions with overlapping vertex footprints ever
// land in the same batch, every batch member was a popped queue head, and
// repeated selection drains every queue (no livelock).
func TestSelectBatchNeverBatchesConflicts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		gks := 1 + r.Intn(3)
		s := newBareShard(t, gks, 8)

		// Build one monotone stream per gatekeeper. Clocks observe each
		// other at random points, yielding a mix of ordered and
		// concurrent cross-gatekeeper pairs (concurrent pairs are refined
		// by the test's private oracle on demand, as in production).
		clocks := make([]*core.VectorClock, gks)
		for i := range clocks {
			clocks[i] = core.NewVectorClock(i, gks, 0)
		}
		total := 0
		for gk := 0; gk < gks; gk++ {
			n := 2 + r.Intn(8)
			for i := 0; i < n; i++ {
				if r.Intn(3) == 0 {
					clocks[gk].Observe(clocks[r.Intn(gks)].Peek())
				}
				ts := clocks[gk].Tick()
				s.queues[gk] = append(s.queues[gk], queued{ts: ts, ops: randTxOps(r, 4)})
				total++
			}
		}
		// Frontiers vclock-after every stream, as trailing NOPs from fully
		// synchronized clocks would set (otherwise a tx concurrent with a
		// fixed frontier could legitimately wait forever for more NOPs).
		for gk := 0; gk < gks; gk++ {
			for o := 0; o < gks; o++ {
				clocks[gk].Observe(clocks[o].Peek())
			}
		}
		for gk := 0; gk < gks; gk++ {
			s.frontier[gk] = clocks[gk].Tick()
		}

		seenBatches := 0
		drained := 0
		for {
			batch := s.selectBatch(256)
			if len(batch) == 0 {
				break
			}
			seenBatches++
			drained += len(batch)
			// Core property: pairwise-disjoint vertex footprints.
			fp := make(graph.Footprint)
			for _, q := range batch {
				if fp.OverlapsOps(q.ops) {
					t.Fatalf("trial %d: conflicting transactions batched together: %v", trial, batch)
				}
				fp.AddOps(q.ops)
			}
			if drained < total && seenBatches > total {
				t.Fatalf("trial %d: selection not making progress", trial)
			}
		}
		if drained != total {
			t.Fatalf("trial %d: drained %d of %d transactions", trial, drained, total)
		}
	}
}

// TestSelectBatchKeepsConflictOrder checks that two conflicting
// transactions from different gatekeepers are split across batches in
// their refined timestamp order: the batch sequence applied serially must
// equal the order the shard's own order() relation dictates.
func TestSelectBatchKeepsConflictOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		gks := 2 + r.Intn(2)
		s := newBareShard(t, gks, 8)
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
		// Execute batch by batch, recording a global position per tx.
		pos := make(map[core.ID]int)
		next := 0
		for {
			batch := s.selectBatch(256)
			if len(batch) == 0 {
				break
			}
			for _, q := range batch {
				pos[q.ts.ID()] = next
			}
			next++ // same batch = same position (unordered within)
		}
		if len(pos) != len(all) {
			t.Fatalf("trial %d: drained %d of %d transactions", trial, len(pos), len(all))
		}
		// Conflicting pairs must be ordered across batches consistently
		// with the shard's order relation (vector clock + cached oracle).
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				a, b := all[i], all[j]
				if a.v != b.v {
					continue
				}
				pa, pb := pos[a.ts.ID()], pos[b.ts.ID()]
				if pa == pb {
					t.Fatalf("trial %d: conflicting txs %v and %v share a batch", trial, a.ts, b.ts)
				}
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

// TestShardParallelApplyMatchesSerial runs the same transaction stream
// through a serial shard and a parallel shard and checks the resulting
// stats and graph agree — an end-to-end check that the worker pool applies
// everything exactly once.
func TestShardParallelApplyMatchesSerial(t *testing.T) {
	run := func(workers int) Stats {
		f := transport.NewFabric()
		sh := New(Config{ID: 0, NumGatekeepers: 1, Workers: workers},
			f.Endpoint(transport.ShardAddr(0)), nil, oracle.NewService(), nodeprog.NewRegistry(), partition.NewHash(1))
		sh.Start()
		defer sh.Stop()
		drv := f.Endpoint(transport.GatekeeperAddr(0))
		clock := core.NewVectorClock(0, 1, 0)
		seq := transport.NewSequencer()
		const txs = 200
		for i := 0; i < txs; i++ {
			v := graph.VertexID(fmt.Sprintf("v%d", i%50)) // 4 txs per vertex: real conflicts
			var ops []graph.Op
			if i < 50 {
				ops = append(ops, graph.Op{Kind: graph.OpCreateVertex, Vertex: v})
			}
			ops = append(ops, graph.Op{Kind: graph.OpSetVertexProp, Vertex: v, Key: "n", Value: fmt.Sprint(i)})
			drv.Send(transport.ShardAddr(0), wire.TxForward{TS: clock.Tick(), Seq: seq.Next(transport.ShardAddr(0)), Ops: ops})
		}
		deadline := time.Now().Add(5 * time.Second)
		for sh.Stats().TxExecuted < txs {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: stalled at %+v", workers, sh.Stats())
			}
			time.Sleep(100 * time.Microsecond)
		}
		if n := sh.Graph().NumVertices(); n != 50 {
			t.Fatalf("workers=%d: %d vertices, want 50", workers, n)
		}
		return sh.Stats()
	}
	serial, parallel := run(0), run(8)
	if serial.TxExecuted != parallel.TxExecuted || serial.OpsApplied != parallel.OpsApplied {
		t.Fatalf("serial %+v != parallel %+v", serial, parallel)
	}
	if serial.ApplyErrors != 0 || parallel.ApplyErrors != 0 {
		t.Fatalf("apply errors: serial %+v parallel %+v", serial, parallel)
	}
}
