package gatekeeper

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/plan"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// ErrNoIndex is returned by index lookups naming a property key no
// secondary index is configured for (weaver.Config.Indexes).
var ErrNoIndex = errors.New("gatekeeper: no secondary index on property key")

// LookupOptions parameterizes one index query.
type LookupOptions struct {
	// Wheres is the predicate conjunction (wire.Eq and wire.Between build
	// the equality and inclusive-range forms); every predicate key must be
	// indexed. It is pushed down to the shards on the wire.
	Wheres []wire.Where
	// Limit caps the result at the first Limit matches by ascending
	// vertex ID (0 = unlimited); pushed down with Wheres so shards
	// truncate locally before replying.
	Limit int
	// ForceBroadcast skips shard pruning and contacts every shard — the
	// planner-equivalence oracle and the EXPLAIN comparison baseline.
	ForceBroadcast bool
	// Explain, when non-nil, is filled with the executed plan.
	Explain *plan.Explanation
}

// Lookup evaluates a secondary-index query cluster-wide at readTS: every
// contacted shard answers for its partition once it has applied everything
// at or before readTS, and the merged result is exactly the set of vertices
// satisfying EVERY predicate of opts.Wheres in the snapshot at readTS —
// historically consistent when readTS is a pinned or retained past
// timestamp (§4.5). A ZERO readTS means "at a fresh snapshot": the lookup
// reads at a timestamp minted here, strictly after every transaction
// committed through this gatekeeper and held against GC while the query
// runs — the strictly serializable current-lookup mode. The effective read
// timestamp is returned either way. Results are sorted by vertex ID and
// truncated to the first opts.Limit matches when it is positive. Returns an
// error wrapping ErrStaleSnapshot when readTS has fallen behind the GC
// watermark, or ErrNoIndex when a predicate key is not indexed.
//
// Which shards are contacted is decided by the query planner: shards
// lacking a presence marker for any equality predicate provably hold no
// match at any snapshot and are pruned (see package plan for the soundness
// argument, including why a query proven empty by the catalog may answer
// without consulting a single shard — even past the GC watermark); a
// conjunction without an equality predicate contacts every shard.
// Execution:
//
//  1. resolve and pin the read timestamp (pinRead: one critical section,
//     so GC reporting cannot slip between a fresh mint and its pin);
//  2. build the plan: read the marker catalog (AFTER the mint — the
//     happens-before edge of package plan) and intersect equality
//     predicates into the contacted shard set, or fall back to broadcast;
//  3. scatter concurrently to the planned shards and gather — each round
//     is one pendingRead, registered, finished and awaited exactly like a
//     node program (prog.go);
//  4. re-check the marker catalog and follow up on any shard whose marker
//     appeared while the round was in flight (same read timestamp — the
//     pin guarantees it is still answerable), until no new shard matches;
//  5. merge: sort, deduplicate, truncate to the limit.
//
// Deduplication is load-bearing beyond the multi-round case: during a
// vertex migration fence a posting can transiently exist on two shards, so
// two shards of ONE round may both report the same vertex.
func (g *Gatekeeper) Lookup(readTS core.Timestamp, opts LookupOptions) ([]graph.VertexID, core.Timestamp, error) {
	if len(opts.Wheres) == 0 {
		return nil, readTS, fmt.Errorf("%w: empty predicate conjunction", ErrProgFailed)
	}
	tL := time.Now()

	// The pause gate is held from the mint through planning to the first
	// round's sends (lookupRound releases it). The pin, not a registered
	// pendingRead, protects the snapshot: it must survive ACROSS scatter
	// rounds, while each round registers its own.
	if err := g.admit(); err != nil {
		return nil, readTS, err
	}
	readTS = g.pinRead(readTS)
	defer g.Unpin(readTS)

	tr := g.m.tracer.Start()
	// Plan. Marker catalog reads happen after the mint above: any
	// transaction whose marker the catalog does NOT show minted after this
	// query and is caught by the post-merge re-check if a shard saw it.
	tPlan := time.Now()
	eqs := plan.Equalities(opts.Wheres)
	var pl plan.Plan
	switch {
	case opts.ForceBroadcast:
		pl = g.planner.Broadcast("forced broadcast")
	case len(g.indexed) == 0:
		pl = g.planner.Broadcast("no indexed keys configured")
	case !g.allIndexed(opts.Wheres):
		// Let the shards answer authoritatively with ErrCodeNoIndex.
		pl = g.planner.Broadcast("unindexed predicate key")
	default:
		pl = g.planner.Build(plan.Query{Wheres: opts.Wheres})
	}
	g.m.plansBuilt.Inc()
	if pl.Broadcast {
		g.m.planFallback.Inc()
	}
	tScatter := time.Now()
	g.m.planBuild.Dur(tScatter.Sub(tPlan))
	tr.Span("plan_build", tPlan, tScatter)

	req := wire.IndexLookup{
		ReadTS: readTS,
		Wheres: opts.Wheres,
		Limit:  opts.Limit,
		Reply:  g.ep.Addr(),
		Trace:  tr.ID(),
	}

	contacted := make(map[int]struct{}, g.cfg.NumShards)
	var (
		verts     []graph.VertexID
		contacts  []plan.ShardContact
		shardsNow = pl.Shards
		followups = 0
		lerr      error
	)
	for { // the pause read lock is held at the top of every iteration
		if len(shardsNow) == 0 {
			g.pause.RUnlock()
		} else {
			rv, rc, err := g.lookupRound(req, shardsNow) // releases the pause lock
			if err != nil {
				lerr = err
				break
			}
			verts = append(verts, rv...)
			contacts = append(contacts, rc...)
			for _, s := range shardsNow {
				contacted[s] = struct{}{}
			}
		}
		if pl.Broadcast {
			break // every shard contacted; nothing to re-check
		}
		// Post-merge marker re-check (soundness, see package plan): a
		// marker that appeared since planning belongs to a transaction
		// racing this query whose postings a contacted shard may have
		// already served — visit its shard too, at the SAME read
		// timestamp, so the racer is observed fully or not at all.
		// Markers only accrete and each round retires its shards, so the
		// loop is bounded by NumShards.
		extra := g.planner.MatchShards(eqs, contacted)
		if len(extra) == 0 {
			break
		}
		followups++
		g.m.planRechecks.Inc()
		shardsNow = extra
		if lerr = g.admit(); lerr != nil {
			break
		}
	}

	g.m.lookupDur.Since(tL)
	tr.SpanSince("index_lookup", tL)
	g.m.tracer.Done(tr)
	if lerr != nil {
		return nil, readTS, lerr
	}

	tMerge := time.Now()
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
	verts = dedupVertices(verts)
	if opts.Limit > 0 && len(verts) > opts.Limit {
		verts = verts[:opts.Limit]
	}

	g.m.planContacted.Add(uint64(len(contacted)))
	g.m.planPruned.Add(uint64(g.cfg.NumShards - len(contacted)))
	if ex := opts.Explain; ex != nil {
		// One reply per contacted shard. Shards truncate locally, so the
		// merged length can undercount; their pre-limit Matched totals are
		// the honest actual-rows figure (double-counting only a
		// mid-migration transient).
		sort.Slice(contacts, func(i, j int) bool { return contacts[i].Shard < contacts[j].Shard })
		shards := make([]int, len(contacts))
		matched := 0
		for i, c := range contacts {
			shards[i] = c.Shard
			matched += c.Matched
		}
		*ex = plan.Explanation{
			Wheres:         opts.Wheres,
			Limit:          opts.Limit,
			Broadcast:      pl.Broadcast,
			FallbackReason: pl.FallbackReason,
			Shards:         shards,
			Pruned:         g.cfg.NumShards - len(contacted),
			Rounds:         followups,
			ActualRows:     matched,
			PlanTime:       tScatter.Sub(tPlan),
			ScatterTime:    tMerge.Sub(tScatter),
			MergeTime:      time.Since(tMerge),
			PerShard:       contacts,
		}
	}
	return verts, readTS, nil
}

// lookupRound issues one scatter round to the given shards and gathers
// their replies. The pause read lock must be held on entry; it is released
// once every send has been issued — issuance-only gating, so the
// completion wait never blocks a migration pause. Sends go out
// concurrently, one goroutine per shard: the round's issuance latency is
// the slowest single send, not the sum — sequential sends would hold the
// pause gate (and any migration batch queued behind it) for the full sum
// under a slow or backpressured transport.
func (g *Gatekeeper) lookupRound(req wire.IndexLookup, shards []int) ([]graph.VertexID, []plan.ShardContact, error) {
	p := &pendingRead{kind: lookupRead, remaining: make(map[int]struct{}, len(shards))}
	for _, s := range shards {
		p.remaining[s] = struct{}{}
	}
	g.register(p)
	req.QID = p.ts.ID()

	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if err := g.ep.Send(transport.ShardAddr(s), req); err != nil {
				g.finish(p, fmt.Errorf("%w: shard %d unreachable: %v", ErrProgFailed, s, err))
			}
		}(s)
	}
	wg.Wait()
	g.pause.RUnlock()

	if err := g.await(p); err != nil {
		return nil, nil, err
	}
	return p.vertices, p.contacts, nil
}

// allIndexed reports whether every predicate key carries a secondary
// index per this gatekeeper's configuration.
func (g *Gatekeeper) allIndexed(ws []wire.Where) bool {
	for _, w := range ws {
		if _, ok := g.indexed[w.Key]; !ok {
			return false
		}
	}
	return true
}

// dedupVertices collapses adjacent duplicates in a sorted slice, in place.
func dedupVertices(vs []graph.VertexID) []graph.VertexID {
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// handleIndexResult folds one shard's reply into the pending lookup round.
func (g *Gatekeeper) handleIndexResult(m wire.IndexResult) {
	g.mu.Lock()
	p, ok := g.reads[m.QID]
	if !ok || p.kind != lookupRead {
		g.mu.Unlock()
		return // late reply for a finished/timed-out lookup
	}
	if m.Err != "" || m.ErrCode != wire.ErrCodeNone {
		g.mu.Unlock()
		g.finish(p, replyErr(m.ErrCode, m.Err))
		return
	}
	if _, waiting := p.remaining[m.Shard]; !waiting {
		g.mu.Unlock()
		return // duplicate reply
	}
	delete(p.remaining, m.Shard)
	p.vertices = append(p.vertices, m.Vertices...)
	p.contacts = append(p.contacts, plan.ShardContact{
		Shard: m.Shard, Rows: len(m.Vertices), Matched: m.Matched, Scanned: m.Scanned,
	})
	finished := len(p.remaining) == 0
	g.mu.Unlock()
	if finished {
		g.finish(p, nil)
	}
}
