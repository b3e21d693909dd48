package shard

import (
	"fmt"
	"os"

	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// The read path. A read — a batch of node-program hops or an index lookup —
// is (what, read timestamp); current and historical reads differ only in
// the timestamp their coordinator chose. Every read queues in one FIFO
// (Shard.reads) and passes one gate (runReadyReads): it waits until the
// shard has applied everything at or before its read timestamp (§4.1), is
// refused with a typed error if that timestamp is behind the GC watermark
// (§4.5), and otherwise evaluates under the visibility predicate built from
// it — refused after all where it misses a vertex whose record, read back
// from the store, is newer than the read (graph.View.Truncated; a lookup:
// the index's install horizon). Reads run on the event loop between
// transactions, so they never observe a half-applied transaction.

// pendingRead is one read waiting at the gate; exactly one of hops and
// lookup is set.
type pendingRead struct {
	readTS core.Timestamp
	hops   *wire.ProgHops
	lookup *wire.IndexLookup
}

// runReadyReads runs every pending read whose read timestamp the shard has
// fully passed (§4.1: "Weaver delays execution of a node program at a shard
// until after execution of all preceding and concurrent transactions"). A
// historical read only needs everything at or before its snapshot applied,
// so it never waits behind traffic newer than what it reads.
func (s *Shard) runReadyReads() {
	remaining := s.reads[:0]
	for _, r := range s.reads {
		if r.hops != nil {
			if _, gone := s.finished[r.hops.QID]; gone {
				continue // late hops for a closed query
			}
		}
		if !s.progReady(r.readTS) {
			s.solicit(r.readTS)
			remaining = append(remaining, r)
			continue
		}
		// The snapshot fell behind the GC watermark: versions it would need
		// may be collected. Refuse with a typed code — never wrong data.
		// Checked read-by-read on the event loop, which also runs GC, so a
		// read that passes sees strictly pre-collection state.
		var stale string
		if s.snapshotStale(r.readTS) {
			s.m.staleGC.Inc()
			stale = fmt.Sprintf("shard %d: read timestamp %v behind GC watermark %v",
				s.cfg.ID, r.readTS, s.gcWM)
		}
		switch {
		case r.lookup != nil:
			s.answerLookup(r.lookup, stale)
		case stale != "":
			s.ep.Send(r.hops.Coordinator, wire.ProgDelta{
				QID: r.hops.QID, ErrCode: wire.ErrCodeStaleSnapshot, Err: stale,
			})
			s.endQuery(r.hops.QID)
		default:
			s.runBatch(r.hops)
		}
	}
	s.reads = remaining
}

// snapshotStale reports whether a read at ts can no longer be answered
// exactly: the GC watermark has passed it, so versions whose lifetime
// ended between ts and the watermark — exactly the ones ts should still
// see — may be collected. Reads at or after the watermark are always
// exact; a read at a fresh timestamp can never be stale because its
// coordinator holds its gatekeeper's watermark report below it while it
// runs.
func (s *Shard) snapshotStale(ts core.Timestamp) bool {
	if s.gcWM.Zero() {
		return false // no collection has happened; all history resident
	}
	// Pointwise, not happens-before: the watermark is a PointwiseMin
	// combination whose owner is arbitrary, so it is often Concurrent
	// with timestamps it is componentwise-equal or -below. Every
	// collected version ended strictly vector-below the watermark, hence
	// is invisible to any reader the watermark is pointwise-≤.
	return !s.gcWM.PointwiseLE(ts)
}

// progReady reports whether every transaction this shard could still
// execute is strictly after ts: each queue is empty with its frontier past
// ts, or its head (hence everything behind it) is vclock-after ts.
func (s *Shard) progReady(ts core.Timestamp) bool {
	for gk := range s.queues {
		if len(s.queues[gk]) > 0 {
			if ts.Compare(s.queues[gk][0].ts) != core.Before {
				return false
			}
			continue
		}
		f := s.frontier[gk]
		if f.Zero() || ts.Compare(f) != core.Before {
			return false
		}
	}
	return true
}

// solicit asks every gatekeeper that holds a read at ts back for one NOP
// past it (wire.NopRequest), so the read waits for a round trip rather than
// for the next periodic NOP and announce. The target is the pointwise
// maximum of ts and every queue head not vclock-after it: the read waits
// for those heads to apply, and each head waits on the other frontiers. A
// gatekeeper whose frontier is already past the target is not asked, nor
// one whose outstanding request covers it — at most one request per
// gatekeeper is in flight for any one target. A fresh read's start batch
// comes with its requests made (covered), so it asks only when a queue
// head pushes the target past its timestamp. A lost request costs only the
// wait the periodic NOPs bound.
func (s *Shard) solicit(ts core.Timestamp) {
	target := ts
	for gk := range s.queues {
		if q := s.queues[gk]; len(q) > 0 && ts.Compare(q[0].ts) != core.Before {
			target = core.PointwiseMax(target, q[0].ts)
		}
	}
	for gk := range s.queues {
		if target.PointwiseLT(s.frontier[gk]) || target.PointwiseLE(s.asked[gk]) {
			continue
		}
		s.asked[gk] = core.PointwiseMax(s.asked[gk], target)
		s.m.nopRequests.Inc()
		s.ep.Send(transport.GatekeeperAddr(gk), wire.NopRequest{TS: target, From: s.ep.Addr()})
	}
}

// covered records the requests a fresh read's coordinator made when it
// minted the read at ts (wire.ProgHops.Solicited): every gatekeeper whose
// stream here is not already past ts has a NOP past it on its way.
func (s *Shard) covered(ts core.Timestamp) {
	for gk, a := range s.asked {
		switch {
		case ts.PointwiseLT(s.frontier[gk]) || ts.PointwiseLE(a):
			// Passed already, or an outstanding request covers ts.
		case a.PointwiseLE(ts):
			s.asked[gk] = ts // no merge to allocate: the common case
		default:
			s.asked[gk] = core.PointwiseMax(a, ts)
		}
	}
}

// visible builds the snapshot predicate for a node program at ts: a version
// written at w is visible iff w happened before ts, resolving concurrent
// pairs with the write-before-read preference (§4.1: for fresh pairs "the
// oracle will prefer arrival order … always ordering node programs after
// transactions"), so programs never miss updates from transactions that
// committed before they ran.
//
// The concurrent case needs no oracle round trip: read events never
// acquire out-edges in the dependency DAG — nothing in the protocol ever
// orders a transaction AFTER a node program (AssignOrder and head-ordering
// queries only ever relate transactions; programs appear only as the
// second argument of a Before-preferring query) — so the oracle's answer
// for (write, program) is deterministically Before. Short-circuiting it
// locally keeps every shard off the oracle mutex on the read path, which
// is what lets historical readers at pinned snapshots run without
// degrading write throughput (the DAG grows while a pin is held, and
// serializing reads on it would convoy the whole cluster).
func (s *Shard) visible(progTS core.Timestamp) graph.Before {
	return func(w core.Timestamp) bool {
		switch w.Compare(progTS) {
		case core.Before:
			return true
		case core.After, core.Equal:
			return false
		}
		s.m.readRefines.Inc()
		return true
	}
}

// maxReused bounds what a shard keeps between batches and queries: the
// heat-credit map, a query's states map and each batch buffer (hopScratch)
// grown past it by one large traversal is dropped, not cleared, so one
// outlier does not pin its memory; maxFreeStates bounds the free list of
// states maps.
const (
	maxReused     = 1024
	maxFreeStates = 64
)

// hopScratch is runBatch's scratch, reused by every batch: the local work
// stack, the consumed hop IDs and results the batch's delta reports, the
// IDs of the remote hops it spawned and, per target shard, the remote hops
// themselves. Send keeps no payload memory (transport.Endpoint), so each
// buffer is free again once its message is sent; reset empties them all
// when the batch ends.
type hopScratch struct {
	work     []wire.Hop
	consumed []uint64
	results  [][]byte
	spawned  []uint64
	remote   [][]wire.Hop // indexed by target shard
}

func (sc *hopScratch) reset() {
	sc.work = recycle(sc.work)
	sc.consumed = recycle(sc.consumed)
	sc.results = recycle(sc.results)
	sc.spawned = recycle(sc.spawned)
	for i := range sc.remote {
		sc.remote[i] = recycle(sc.remote[i])
	}
}

// recycle empties a scratch buffer for the next batch: the elements are
// zeroed so the array keeps nothing alive, and an array grown past
// maxReused is dropped.
func recycle[T any](buf []T) []T {
	if cap(buf) > maxReused {
		return nil
	}
	clear(buf)
	return buf[:0]
}

// takeStates returns an empty states map for a query that stores its
// first prog_state here: an ended query's (endQuery) when one is free.
func (s *Shard) takeStates() map[graph.VertexID][]byte {
	n := len(s.freeStates)
	if n == 0 {
		return make(map[graph.VertexID][]byte)
	}
	states := s.freeStates[n-1]
	s.freeStates[n-1] = nil
	s.freeStates = s.freeStates[:n-1]
	return states
}

// endQuery drops a query's program state (§4.5) — on ProgFinish, a stale
// refusal or a failed batch — and keeps its map, cleared, for the next
// query (takeStates), unless it grew past maxReused or the free list is
// full.
func (s *Shard) endQuery(q core.ID) {
	states, ok := s.progState[q]
	if !ok {
		return
	}
	delete(s.progState, q)
	if len(states) <= maxReused && len(s.freeStates) < maxFreeStates {
		clear(states)
		s.freeStates = append(s.freeStates, states)
	}
}

// runBatch executes a batch of hops and their local cascade, forwards
// remote hops, and reports the delta to the coordinator. It allocates per
// query, not per hop: its buffers are the shard's (hopScratch), a query's
// states map comes from the free list, and a visit's hops are built in the
// Context's hop buffer (nodeprog.Context.HopBuffer).
func (s *Shard) runBatch(b *wire.ProgHops) {
	s.progBatches.Add(1)
	s.view = s.g.ViewAt(s.visible(b.ReadTS))
	view := &s.view
	sc := &s.batch
	defer sc.reset()

	// Made on first use: only a program that stores state needs states.
	states := s.progState[b.QID]

	for _, h := range b.Hops {
		sc.consumed = append(sc.consumed, h.ID)
	}
	sc.work = append(sc.work, b.Hops...)
	ctx := &s.visit // keeps its hop buffer; every other field is set per visit
	ctx.Query, ctx.TS = b.QID, b.ReadTS
	visits := 0
	// Heat attribution (§4.6): every visit warms its vertex; a visit whose
	// hop arrived from another shard warms it more (that hop is the
	// cross-partition traffic repartitioning wants to eliminate). Credits
	// accumulate in s.credits and flush in one lock acquisition per batch —
	// BEFORE the batch's delta leaves the shard, so a migration that
	// drains programs and then evicts a vertex's heat cannot be overtaken
	// by a late flush resurrecting the entry on the source shard.
	credits := s.credits
	flushHeat := func() {
		s.heat.addMany(credits)
		if len(credits) > maxReused {
			s.credits = make(map[graph.VertexID]float64) // clear costs the map's capacity
		} else {
			clear(credits)
		}
	}
	fail := func(code int, err error) {
		flushHeat()
		s.ep.Send(b.Coordinator, wire.ProgDelta{QID: b.QID, ErrCode: code, Err: err.Error()})
		s.endQuery(b.QID)
	}
	for len(sc.work) > 0 {
		if visits >= maxCascade {
			fail(wire.ErrCodeNone, fmt.Errorf("shard %d: node program %v exceeded cascade limit %d", s.cfg.ID, b.QID, maxCascade))
			return
		}
		top := len(sc.work) - 1
		hop := sc.work[top]
		sc.work[top] = wire.Hop{} // the array outlives the hop
		sc.work = sc.work[:top]
		visits++
		s.progVisits.Add(1)
		credits[hop.Vertex] += heatVisit
		if hop.Origin >= 0 && hop.Origin != s.cfg.ID {
			credits[hop.Vertex] += heatRemoteHop
		}

		p, found := s.reg.Get(hop.Program)
		if !found {
			fail(wire.ErrCodeNone, fmt.Errorf("shard %d: unknown node program %q", s.cfg.ID, hop.Program))
			return
		}
		// Only existence is resolved here: the program fills the view
		// if it reads it (nodeprog.Context.View).
		inc := view.Incarnation(hop.Vertex)
		if inc == nil {
			// Demand paging, fault half (§6.1): the vertex may have
			// been evicted; reload its committed record.
			if s.paging && !s.g.Has(hop.Vertex) {
				paged, err := s.pageIn(hop.Vertex)
				if err != nil {
					fail(wire.ErrCodeNone, fmt.Errorf("shard %d: page in %q: %w", s.cfg.ID, hop.Vertex, err))
					return
				}
				if paged {
					inc = view.Incarnation(hop.Vertex)
				}
			}
			// A record read back from the store — paged in or recovered —
			// may be newer than this read, and then the vertex's state at
			// the read timestamp was never loaded: refuse, typed.
			if mark, cut := view.Truncated(hop.Vertex); inc == nil && cut {
				s.m.staleInstall.Inc()
				fail(wire.ErrCodeStaleSnapshot, fmt.Errorf("shard %d: read timestamp %v below the install stamp %v of %q",
					s.cfg.ID, b.ReadTS, mark, hop.Vertex))
				return
			}
		}
		ctx.VertexID, ctx.Vertex = hop.Vertex, nil
		ctx.Source(view, inc, &s.vertex)
		ctx.State, ctx.Params = states[hop.Vertex], hop.Params
		res, err := p.Visit(ctx)
		if err != nil {
			fail(wire.ErrCodeNone, fmt.Errorf("shard %d: program %q at %q: %v", s.cfg.ID, hop.Program, hop.Vertex, err))
			return
		}
		if res.State != nil {
			if states == nil {
				states = s.takeStates()
				s.progState[b.QID] = states
			}
			states[hop.Vertex] = res.State
		}
		if res.Return != nil {
			sc.results = append(sc.results, res.Return)
		}
		for _, nh := range res.Hops {
			nextProg := nh.Program
			if nextProg == "" {
				nextProg = hop.Program
			}
			if tgt := s.dir.Lookup(nh.Vertex); tgt != s.cfg.ID {
				// Remote hops get unique IDs (shard index in the
				// high bits) for the coordinator's spawn/consume
				// matching.
				id := s.hopSeq.Add(1) | uint64(s.cfg.ID+1)<<48
				for len(sc.remote) <= tgt {
					sc.remote = append(sc.remote, nil)
				}
				sc.remote[tgt] = append(sc.remote[tgt], wire.Hop{ID: id, Vertex: nh.Vertex, Program: nextProg, Params: nh.Params, Origin: s.cfg.ID})
			} else {
				// Local cascade: executed in this batch, no ID needed.
				sc.work = append(sc.work, wire.Hop{Vertex: nh.Vertex, Program: nextProg, Params: nh.Params, Origin: s.cfg.ID})
			}
		}
	}

	flushHeat()
	for tgt, hops := range sc.remote {
		if len(hops) == 0 {
			continue
		}
		for _, h := range hops {
			sc.spawned = append(sc.spawned, h.ID)
		}
		s.ep.Send(transport.ShardAddr(tgt), wire.ProgHops{
			QID:         b.QID,
			TS:          b.TS,
			ReadTS:      b.ReadTS,
			Coordinator: b.Coordinator,
			Hops:        hops,
			Trace:       b.Trace,
		})
	}
	if err := s.ep.Send(b.Coordinator, wire.ProgDelta{
		QID:         b.QID,
		ConsumedIDs: sc.consumed,
		SpawnedIDs:  sc.spawned,
		Results:     sc.results,
		Trace:       b.Trace,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "weaver shard %d: delta to %s: %v\n", s.cfg.ID, b.Coordinator, err)
	}
}
