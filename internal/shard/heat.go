package shard

import (
	"sort"
	"sync"

	"weaver/internal/graph"
)

// Per-vertex heat tracking for online repartitioning (§4.6). Every shard
// scores the vertices it hosts by recent activity: transactional writes,
// node-program visits, and — weighted higher, because they are exactly the
// cost dynamic placement exists to remove — node-program hops that arrived
// from another shard. The cluster's background rebalancer reads the top-K
// hot vertices (HeatTopK), feeds them with their live adjacency through the
// LDG streaming partitioner, and migrates the ones whose placement should
// change. Scores decay geometrically (DecayHeat) so the ranking tracks the
// current workload rather than all-time totals.
const (
	// heatWrite is added per write operation applied to a vertex.
	heatWrite = 1.0
	// heatVisit is added per node-program visit of a vertex.
	heatVisit = 1.0
	// heatRemoteHop is added on top of heatVisit when the visit's hop
	// crossed a shard boundary to get here — the traffic a better
	// placement would make local.
	heatRemoteHop = 2.0
	// heatFloor drops a vertex from the table once decay brings its score
	// below this, bounding the table to recently active vertices.
	heatFloor = 0.05
	// heatMaxEntries hard-caps the table. Periodic decay already bounds it
	// when a rebalancer runs; the cap covers clusters that track heat but
	// never rebalance (Config.RebalanceInterval unset), where churn over
	// many distinct vertices would otherwise grow the map forever.
	heatMaxEntries = 1 << 16
)

// VertexHeat is one vertex's activity score, as reported by HeatTopK.
type VertexHeat struct {
	Vertex graph.VertexID
	Shard  int
	Heat   float64
}

// heatMap is the shard-local score table. It has its own lock (not the
// event loop's state): writes and visits come from the event loop, reads
// from the cluster's rebalancer goroutine.
// Callers batch additions (addMany) so the hot paths pay one acquisition
// per transaction or program batch, not one per operation.
type heatMap struct {
	mu sync.Mutex
	m  map[graph.VertexID]float64
}

func newHeatMap() *heatMap {
	return &heatMap{m: make(map[graph.VertexID]float64)}
}

// addOps credits one transaction's write operations in a single lock
// acquisition.
func (h *heatMap) addOps(ops []graph.Op) {
	if len(ops) == 0 {
		return
	}
	h.mu.Lock()
	for i := range ops {
		h.m[ops[i].Vertex] += heatWrite
	}
	h.pruneLocked()
	h.mu.Unlock()
}

// addMany merges a batch of per-vertex credits (one program batch's visits)
// in a single lock acquisition.
func (h *heatMap) addMany(credits map[graph.VertexID]float64) {
	if len(credits) == 0 {
		return
	}
	h.mu.Lock()
	for v, w := range credits {
		h.m[v] += w
	}
	h.pruneLocked()
	h.mu.Unlock()
}

// pruneLocked enforces heatMaxEntries: one decay pass sheds cold entries;
// if the table is somehow still over cap (that many genuinely hot
// vertices), arbitrary entries are dropped — the score is a heuristic, and
// anything truly hot re-earns its entry on its next access.
func (h *heatMap) pruneLocked() {
	if len(h.m) <= heatMaxEntries {
		return
	}
	for v, w := range h.m {
		w *= 0.5
		if w < heatFloor {
			delete(h.m, v)
		} else {
			h.m[v] = w
		}
	}
	for v := range h.m {
		if len(h.m) <= heatMaxEntries {
			break
		}
		delete(h.m, v)
	}
}

// decay multiplies every score by factor in (0,1), dropping entries that
// fall below heatFloor.
func (h *heatMap) decay(factor float64) {
	h.mu.Lock()
	for v, w := range h.m {
		w *= factor
		if w < heatFloor {
			delete(h.m, v)
		} else {
			h.m[v] = w
		}
	}
	h.mu.Unlock()
}

// topK returns the k hottest vertices, hottest first (ties broken by ID for
// determinism). k <= 0 returns the whole table.
func (h *heatMap) topK(k int, shard int) []VertexHeat {
	h.mu.Lock()
	out := make([]VertexHeat, 0, len(h.m))
	for v, w := range h.m {
		out = append(out, VertexHeat{Vertex: v, Shard: shard, Heat: w})
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Heat != out[j].Heat {
			return out[i].Heat > out[j].Heat
		}
		return out[i].Vertex < out[j].Vertex
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// forget drops a vertex from the table (it migrated away; its activity
// belongs to the new home now).
func (h *heatMap) forget(v graph.VertexID) {
	h.mu.Lock()
	delete(h.m, v)
	h.mu.Unlock()
}

// HeatTopK returns this shard's k hottest vertices, hottest first. Safe to
// call from any goroutine.
func (s *Shard) HeatTopK(k int) []VertexHeat {
	return s.heat.topK(k, s.cfg.ID)
}

// DecayHeat multiplies every heat score by factor, dropping vertices whose
// score decays to noise. The cluster rebalancer calls it once per cycle.
func (s *Shard) DecayHeat(factor float64) {
	s.heat.decay(factor)
}
