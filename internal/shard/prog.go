package shard

import (
	"fmt"
	"os"

	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/nodeprog"
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
// it. Reads run on the event loop between transactions, so they never
// observe a half-applied transaction.

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
			remaining = append(remaining, r)
			continue
		}
		// The snapshot fell behind the GC watermark: versions it would need
		// may be collected. Refuse with a typed code — never wrong data.
		// Checked read-by-read on the event loop, which also runs GC, so a
		// read that passes sees strictly pre-collection state.
		var stale string
		if s.snapshotStale(r.readTS) {
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
			delete(s.progState, r.hops.QID)
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
		s.readRefines.Add(1)
		return true
	}
}

// runBatch executes a batch of hops and their local cascade, forwards
// remote hops, and reports the delta to the coordinator.
func (s *Shard) runBatch(b *wire.ProgHops) {
	s.progBatches.Add(1)
	view := s.g.At(s.visible(b.ReadTS))

	states := s.progState[b.QID]
	if states == nil {
		states = make(map[graph.VertexID][]byte)
		s.progState[b.QID] = states
	}

	work := append([]wire.Hop(nil), b.Hops...)
	consumed := make([]uint64, 0, len(b.Hops))
	for _, h := range b.Hops {
		consumed = append(consumed, h.ID)
	}
	var results [][]byte
	remote := make(map[int][]wire.Hop)
	visits := 0
	// Heat attribution (§4.6): every visit warms its vertex; a visit whose
	// hop arrived from another shard warms it more (that hop is the
	// cross-partition traffic repartitioning wants to eliminate). Credits
	// accumulate locally and flush in one lock acquisition per batch —
	// BEFORE the batch's delta leaves the shard, so a migration that
	// drains programs and then evicts a vertex's heat cannot be overtaken
	// by a late flush resurrecting the entry on the source shard.
	credits := make(map[graph.VertexID]float64)
	flushHeat := func() {
		s.heat.addMany(credits)
		credits = nil
	}
	fail := func(err error) {
		flushHeat()
		s.ep.Send(b.Coordinator, wire.ProgDelta{QID: b.QID, Err: err.Error()})
		delete(s.progState, b.QID)
	}
	for len(work) > 0 {
		if visits >= maxCascade {
			fail(fmt.Errorf("shard %d: node program %v exceeded cascade limit %d", s.cfg.ID, b.QID, maxCascade))
			return
		}
		hop := work[len(work)-1]
		work = work[:len(work)-1]
		visits++
		s.progVisits.Add(1)
		credits[hop.Vertex] += heatVisit
		if hop.Origin >= 0 && hop.Origin != s.cfg.ID {
			credits[hop.Vertex] += heatRemoteHop
		}

		p, found := s.reg.Get(hop.Program)
		if !found {
			fail(fmt.Errorf("shard %d: unknown node program %q", s.cfg.ID, hop.Program))
			return
		}
		vv, ok := view.Vertex(hop.Vertex)
		if !ok && s.paging && !s.g.Has(hop.Vertex) {
			// Demand paging, fault half (§6.1): the vertex may have
			// been evicted; reload its committed record.
			if s.pageIn(hop.Vertex) != nil {
				vv, _ = view.Vertex(hop.Vertex)
			}
		}
		ctx := &nodeprog.Context{
			Query:    b.QID,
			TS:       b.ReadTS,
			VertexID: hop.Vertex,
			Vertex:   vv,
			State:    states[hop.Vertex],
			Params:   hop.Params,
		}
		res, err := p.Visit(ctx)
		if err != nil {
			fail(fmt.Errorf("shard %d: program %q at %q: %v", s.cfg.ID, hop.Program, hop.Vertex, err))
			return
		}
		if res.State != nil {
			states[hop.Vertex] = res.State
		}
		if res.Return != nil {
			results = append(results, res.Return)
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
				remote[tgt] = append(remote[tgt], wire.Hop{ID: id, Vertex: nh.Vertex, Program: nextProg, Params: nh.Params, Origin: s.cfg.ID})
			} else {
				// Local cascade: executed in this batch, no ID needed.
				work = append(work, wire.Hop{Vertex: nh.Vertex, Program: nextProg, Params: nh.Params, Origin: s.cfg.ID})
			}
		}
	}

	flushHeat()
	var spawnedIDs []uint64
	for tgt, hops := range remote {
		for _, h := range hops {
			spawnedIDs = append(spawnedIDs, h.ID)
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
		ConsumedIDs: consumed,
		SpawnedIDs:  spawnedIDs,
		Results:     results,
		Trace:       b.Trace,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "weaver shard %d: delta to %s: %v\n", s.cfg.ID, b.Coordinator, err)
	}
}
