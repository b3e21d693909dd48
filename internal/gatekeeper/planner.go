package gatekeeper

import (
	"fmt"

	"weaver/internal/graph"
	"weaver/internal/plan"
)

// The gatekeeper's half of the query planner (internal/plan): it maintains
// the value-presence marker catalog in the backing store — the monotone
// (key, value, shard) records that make shard pruning sound. See the
// package plan doc comment for the soundness argument.

// markerValue is the body of a presence marker; only existence matters.
var markerValue = []byte{1}

// HasValue implements plan.MarkerReader: whether the (key, value, shard)
// presence marker exists in the backing store. Positives are cached —
// markers are monotone (never deleted), so a cached positive can never go
// stale. Negatives are NEVER cached: the whole point of reading the
// catalog per query is catching a marker a concurrent committer published
// a microsecond ago.
func (g *Gatekeeper) HasValue(key, value string, shard int) bool {
	mk := plan.MarkerKey(key, value, shard)
	g.markerMu.RLock()
	_, have := g.markerHave[mk]
	g.markerMu.RUnlock()
	if have {
		return true
	}
	if _, _, found := g.kv.GetVersioned(mk); !found {
		return false
	}
	g.markerMu.Lock()
	g.markerHave[mk] = struct{}{}
	g.markerMu.Unlock()
	return true
}

// writeIndexMarkers publishes presence markers for every indexed property
// value a transaction's write-set may place, keyed by the target vertex's
// home shard. CommitTx calls it BEFORE minting the transaction's
// timestamp: marker-write < mint is the happens-before edge that makes a
// planner reading the catalog after its own query mint sound (package plan).
// A marker write that cannot commit fails the whole transaction — pruning
// soundness is not best-effort. Home-shard resolution is stable here: the
// caller holds the pause read lock and migration batches hold the write
// lock for their whole placement change.
func (g *Gatekeeper) writeIndexMarkers(ops []graph.Op) error {
	if len(g.indexed) == 0 {
		return nil
	}
	var keys []string
	for _, op := range ops {
		if op.Kind != graph.OpSetVertexProp {
			continue
		}
		if _, idx := g.indexed[op.Key]; !idx {
			continue
		}
		mk := plan.MarkerKey(op.Key, op.Value, g.lookupShard(op.Vertex))
		g.markerMu.RLock()
		_, have := g.markerHave[mk]
		g.markerMu.RUnlock()
		if !have {
			keys = append(keys, mk)
		}
	}
	if len(keys) == 0 {
		return nil
	}
	return g.PublishMarkers(keys)
}

// PublishMarkers writes the given presence-marker keys (plan.MarkerKey) to
// the backing store. Besides the commit path above, bulk ingest and
// migration call it under their fences: postings placed outside the
// transactional path still have to enter the catalog before traffic
// resumes, or the planner would prune their shards. Marker writes are
// idempotent blind puts, so OCC conflicts between committers racing on the
// same value are transient: retry a few times before giving up.
func (g *Gatekeeper) PublishMarkers(keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = g.putMarkers(keys); err == nil {
			g.markerMu.Lock()
			for _, k := range keys {
				g.markerHave[k] = struct{}{}
			}
			g.markerMu.Unlock()
			g.m.markerWrites.Add(uint64(len(keys)))
			return nil
		}
	}
	return fmt.Errorf("gatekeeper %d: index marker write: %w", g.cfg.ID, err)
}

func (g *Gatekeeper) putMarkers(keys []string) error {
	tx := g.kv.Begin()
	defer tx.Abort()
	for _, k := range keys {
		tx.Put(k, markerValue)
	}
	return tx.Commit()
}
