package weaver

// Online heat-driven repartitioning (§4.6). Weaver's locality story is
// *dynamic* graph partitioning: migrating vertices toward their neighbors
// while the cluster serves traffic. Three pieces implement it:
//
//   - Shards track per-vertex heat — writes, node-program visits, and
//     (weighted higher) program hops that crossed a shard boundary — with
//     periodic decay (internal/shard/heat.go; Shard.HeatTopK, Cluster.Heat).
//   - MigrateBatch moves any number of vertices under ONE gatekeeper
//     pause/resume cycle: commits stop, in-flight applies and node programs
//     drain, every record is re-homed in a single backing-store
//     transaction, each source shard hands its movers to their target in
//     memory (shard.Shard.Detach/Attach), the directory is repointed, and
//     traffic resumes. N moves cost one stop-the-world window, not N.
//   - A background rebalancer (Config.RebalanceInterval) periodically feeds
//     the hottest vertices plus their live adjacency through the LDG
//     streaming partitioner and issues one MigrateBatch for the placements
//     that should change. RebalanceStats (in Cluster.Stats) reports moves
//     and batch sizes; weaver_migrate_pause_seconds (Cluster.Metrics) is
//     the pause-time histogram.
//
// Unlike shard recovery, migration does NOT truncate a vertex's in-memory
// version history: the full resident chain and posting history move to
// the target, so historical reads — node programs and lookups pinned at a
// past timestamp — keep answering correctly for migrated vertices. A
// paged-out vertex has no resident chain; the target faults it in from
// its re-homed record on first access, like any other paged-out vertex.

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"weaver/internal/gatekeeper"
	"weaver/internal/graph"
	"weaver/internal/partition"
	"weaver/internal/plan"
	"weaver/internal/shard"
)

// Move names one vertex relocation inside a MigrateBatch.
type Move struct {
	Vertex VertexID
	Target int
}

// VertexHeat is one vertex's activity score (see Cluster.Heat).
type VertexHeat = shard.VertexHeat

// RebalanceStats reports migration activity; Cluster.Stats includes it.
type RebalanceStats struct {
	// MovesTotal counts vertices migrated over the cluster's lifetime.
	MovesTotal uint64
	// Batches counts MigrateBatch calls that moved at least one vertex.
	Batches uint64
	// Skipped counts requested moves dropped at the fence (vertex missing,
	// deleted, or already home on the target).
	Skipped uint64
	// LastBatchSize is the number of vertices the most recent non-empty
	// batch moved.
	LastBatchSize int
	// PauseMax is the longest stop-the-world window a migration batch has
	// cost the cluster; the weaver_migrate_pause_seconds histogram
	// (Cluster.Metrics) holds every one.
	PauseMax time.Duration
	// LastError is the most recent background-rebalance failure, or ""
	// while the rebalancer is healthy.
	LastError string
}

// rebalState is the Cluster's migration bookkeeping.
type rebalState struct {
	mu    sync.Mutex
	stats RebalanceStats
	stop  chan struct{}
	done  chan struct{}
}

// rebalanceTopK caps how many hot vertices one background rebalance cycle
// considers; rebalanceDecay is the geometric heat decay applied per cycle;
// rebalanceSlack is the LDG capacity slack of that cycle (each shard may
// hold 10% above the balanced share).
const (
	rebalanceTopK  = 1024
	rebalanceDecay = 0.5
	rebalanceSlack = 0.1
)

// Heat returns the k hottest vertices across all shards, hottest first —
// the signal the background rebalancer acts on. k <= 0 returns every
// tracked vertex.
func (c *Cluster) Heat(k int) []VertexHeat {
	_, shards := c.servers()
	var all []VertexHeat
	for _, sh := range shards {
		all = append(all, sh.HeatTopK(k)...)
	}
	sortHeat(all)
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// sortHeat orders hottest-first with deterministic ties.
func sortHeat(hs []VertexHeat) {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Heat != hs[j].Heat {
			return hs[i].Heat > hs[j].Heat
		}
		return hs[i].Vertex < hs[j].Vertex
	})
}

// MigrateBatch re-homes a batch of vertices under a single gatekeeper
// pause/resume cycle (§4.6, §4.3 epoch-barrier style):
//
//  1. every gatekeeper pauses (no new commits or node programs), and
//     in-flight shard applies and node programs drain;
//  2. behind the fence, every move's current record is read and re-homed
//     in ONE backing-store transaction — if that commit fails, nothing has
//     been installed anywhere and the batch aborts cleanly;
//  3. only after the commit succeeds does each source shard detach its
//     movers' version chains and posting histories and hand them to the
//     target shards in memory, and the directory repoints;
//  4. gatekeepers resume.
//
// Moves whose vertex is missing, deleted, or already home on its target are
// skipped (RebalanceStats.Skipped). Returns the number of vertices moved.
func (c *Cluster) MigrateBatch(moves []Move) (int, error) {
	mapped, ok := c.dir.(*partition.Mapped)
	if !ok {
		return 0, errors.New("weaver: migration requires Config.Directory to be a *partition.Mapped")
	}
	if c.closed.Load() {
		return 0, errors.New("weaver: cluster closed")
	}
	seen := make(map[VertexID]struct{}, len(moves))
	for _, m := range moves {
		if m.Target < 0 || m.Target >= c.cfg.Shards {
			return 0, fmt.Errorf("weaver: no such shard %d", m.Target)
		}
		if _, dup := seen[m.Vertex]; dup {
			return 0, fmt.Errorf("weaver: duplicate vertex %q in migration batch", m.Vertex)
		}
		seen[m.Vertex] = struct{}{}
	}
	if len(moves) == 0 {
		return 0, nil
	}

	// One fence for the whole batch — the point of this API. Behind it no
	// write-set is queued for a vertex about to be evicted, no program is
	// mid-traversal, and no epoch recovery can swap a shard (Cluster.fenced).
	moved := 0
	pauseStart := time.Now()
	err := c.fenced(func(gks []*gatekeeper.Gatekeeper, shards []*shard.Shard) (err error) {
		moved, err = c.rehome(mapped, moves, gks, shards)
		return err
	})
	c.recordPause(time.Since(pauseStart))
	return moved, err
}

// rehome is MigrateBatch behind its fence (steps 2 and 3).
func (c *Cluster) rehome(mapped *partition.Mapped, moves []Move, gks []*gatekeeper.Gatekeeper, shards []*shard.Shard) (int, error) {
	// Re-home every record in one backing-store transaction. Nothing is
	// installed into any in-memory graph until this commits: a failed
	// commit must not leave a phantom copy on a target shard. Movers are
	// grouped per (source, target) lane: one Detach/Attach serves each.
	type lane struct{ src, dst int }
	byLane := make(map[lane][]graph.VertexID)
	moved, skipped := 0, 0
	tx := c.kv.Begin()
	defer tx.Abort()
	for _, m := range moves {
		data, _, found, err := tx.GetVersioned(graph.VertexKey(m.Vertex))
		if err != nil {
			return 0, fmt.Errorf("weaver: migrate %q: %w", m.Vertex, err)
		}
		if !found {
			skipped++
			continue
		}
		rec, err := graph.DecodeRecord(data)
		if err != nil {
			return 0, fmt.Errorf("weaver: migrate %q: %w", m.Vertex, err)
		}
		if rec.Deleted || rec.Shard == m.Target {
			skipped++
			continue
		}
		ln := lane{rec.Shard, m.Target}
		rec.Shard = m.Target
		if err := tx.Put(graph.VertexKey(m.Vertex), graph.EncodeRecord(rec)); err != nil {
			return 0, fmt.Errorf("weaver: migrate %q: %w", m.Vertex, err)
		}
		byLane[ln] = append(byLane[ln], m.Vertex)
		moved++
	}
	if moved == 0 {
		c.addSkipped(skipped)
		return 0, nil
	}
	if err := tx.Commit(); err != nil {
		return 0, fmt.Errorf("weaver: migrate batch commit: %w", err)
	}

	// Commit succeeded: each source shard hands its movers — version
	// chains, index state — to their target in memory, and the directory
	// repoints. Gatekeepers are paused and applies drained, so nothing
	// reads or writes these vertices here. Every indexed value landing on a
	// target enters the marker catalog — historical values included, so
	// pinned-snapshot lookups plan toward the vertex's new home. Source
	// markers stay: they are monotone, and a stale marker only costs an
	// empty visit.
	markers := make(map[string]struct{})
	for ln, ids := range byLane {
		mv := shards[ln.src].Detach(ids)
		for key, byValue := range mv.Postings.Values {
			for val := range byValue {
				markers[plan.MarkerKey(key, val, ln.dst)] = struct{}{}
			}
		}
		shards[ln.dst].Attach(mv)
		for _, v := range ids {
			mapped.Assign(v, ln.dst)
		}
	}
	c.recordMoves(moved, skipped)
	if err := gks[0].PublishMarkers(slices.Collect(maps.Keys(markers))); err != nil {
		return moved, fmt.Errorf("weaver: migrate markers: %w", err)
	}
	return moved, nil
}

// recordPause records one stop-the-world window.
func (c *Cluster) recordPause(d time.Duration) {
	c.migratePause.Dur(d)
	c.rebal.mu.Lock()
	defer c.rebal.mu.Unlock()
	c.rebal.stats.PauseMax = max(c.rebal.stats.PauseMax, d)
}

func (c *Cluster) recordMoves(moved, skipped int) {
	c.rebal.mu.Lock()
	defer c.rebal.mu.Unlock()
	c.rebal.stats.MovesTotal += uint64(moved)
	c.rebal.stats.Batches++
	c.rebal.stats.LastBatchSize = moved
	c.rebal.stats.Skipped += uint64(skipped)
}

func (c *Cluster) addSkipped(n int) {
	if n == 0 {
		return
	}
	c.rebal.mu.Lock()
	c.rebal.stats.Skipped += uint64(n)
	c.rebal.mu.Unlock()
}

// rebalanceStats snapshots the migration counters for Cluster.Stats.
func (c *Cluster) rebalanceStats() RebalanceStats {
	c.rebal.mu.Lock()
	defer c.rebal.mu.Unlock()
	return c.rebal.stats
}

// adjacencyFor builds the live adjacency of the given vertex set from the
// backing store, using BOTH edge directions: u→w contributes w to u's list
// when u is in the set, and u to w's list when w is in the set. Decode
// failures are accumulated and returned (never silently dropped); live
// reports which set members currently exist undeleted.
//
// Only the set's own records are decoded, at O(set) cost: a decode of the
// whole store every rebalance interval would dwarf the traffic being
// optimized. An in-edge owned by a vertex outside the set is therefore not
// seen, which loses little, because an in-edge that carries traffic makes
// its owner hot, pulling that owner (and so the edge) into the set.
func (c *Cluster) adjacencyFor(set map[VertexID]struct{}) (adj map[VertexID][]VertexID, live map[VertexID]bool, err error) {
	adj = make(map[VertexID][]VertexID, len(set))
	live = make(map[VertexID]bool, len(set))
	var errs []error
	for v := range set {
		data, _, found, err := c.kv.GetVersioned(graph.VertexKey(v))
		if err != nil {
			errs = append(errs, fmt.Errorf("weaver: rebalance: read %q: %w", graph.VertexKey(v), err))
			continue
		}
		if !found {
			continue
		}
		rec, err := graph.DecodeRecord(data)
		if err != nil {
			errs = append(errs, fmt.Errorf("weaver: rebalance: decode %q: %w", graph.VertexKey(v), err))
			continue
		}
		if rec.Deleted {
			continue
		}
		live[v] = true
		for _, e := range rec.Edges {
			if e.To == v {
				continue
			}
			adj[v] = append(adj[v], e.To)
			if _, to := set[e.To]; to {
				adj[e.To] = append(adj[e.To], v)
			}
		}
	}
	return adj, live, errors.Join(errs...)
}

// planMoves runs the LDG streaming partitioner over the given vertices
// (hottest/first-listed get first pick) against their live adjacency and
// returns the placements that should change, plus the adjacency it
// planned over. Current shard loads seed the capacity penalty, and the
// current homes of out-of-set neighbors seed the score, so vertices are
// pulled toward where their neighbors actually live today.
func (c *Cluster) planMoves(vertices []VertexID) ([]Move, map[VertexID][]VertexID, error) {
	// Dedupe, keeping first-occurrence (hottest-first) order: callers may
	// legitimately repeat a vertex — Cluster.Heat can report one from two
	// shards around a migration — and MigrateBatch rejects duplicate moves.
	set := make(map[VertexID]struct{}, len(vertices))
	uniq := make([]VertexID, 0, len(vertices))
	for _, v := range vertices {
		if _, dup := set[v]; dup {
			continue
		}
		set[v] = struct{}{}
		uniq = append(uniq, v)
	}
	vertices = uniq
	adj, live, scanErr := c.adjacencyFor(set)

	_, shards := c.servers()
	loads := make([]int, c.cfg.Shards)
	for i, sh := range shards {
		loads[i] = sh.Graph().NumVertices()
	}
	ldg := partition.NewLDGRebalance(loads, len(vertices), rebalanceSlack)
	for _, nbrs := range adj {
		for _, nb := range nbrs {
			if _, moving := set[nb]; !moving {
				ldg.Seed(nb, c.dir.Lookup(nb))
			}
		}
	}
	var moves []Move
	for _, v := range vertices {
		if !live[v] {
			continue
		}
		want := ldg.Place(v, adj[v])
		if want != c.dir.Lookup(v) {
			moves = append(moves, Move{Vertex: v, Target: want})
		}
	}
	return moves, adj, scanErr
}

// placementCut counts cross-shard endpoints over the planned-set adjacency
// under a placement function — the hysteresis metric for RebalanceOnce.
// (Edges between two set members are counted from both sides; the double
// counting is consistent across the placements being compared.)
func placementCut(adj map[VertexID][]VertexID, lookup func(VertexID) int) int {
	cut := 0
	for v, nbrs := range adj {
		hv := lookup(v)
		for _, nb := range nbrs {
			if lookup(nb) != hv {
				cut++
			}
		}
	}
	return cut
}

// RebalanceOnce runs one heat-driven rebalance cycle — what the background
// rebalancer does every Config.RebalanceInterval: sample the hottest
// vertices across all shards, re-place them with LDG against their live
// adjacency, migrate the changed placements in one batch, and decay the
// heat tables. Returns the number of vertices moved.
func (c *Cluster) RebalanceOnce() (int, error) {
	if _, ok := c.dir.(*partition.Mapped); !ok {
		return 0, errors.New("weaver: rebalancing requires Config.Directory to be a *partition.Mapped")
	}
	hot := c.Heat(rebalanceTopK)
	defer func() {
		_, shards := c.servers()
		for _, sh := range shards {
			sh.DecayHeat(rebalanceDecay)
		}
	}()
	if len(hot) == 0 {
		return 0, nil
	}
	vertices := make([]VertexID, len(hot))
	for i, h := range hot {
		vertices[i] = h.Vertex
	}
	moves, adj, planErr := c.planMoves(vertices)
	if len(moves) == 0 {
		return 0, planErr
	}
	// Hysteresis: a fresh LDG run can emit a placement that merely
	// permutes which shard holds which community — equivalent quality,
	// but every needless batch is a stop-the-world pause. Only migrate
	// when the planned placement strictly reduces the cross-shard edge
	// count over the hot set.
	planned := make(map[VertexID]int, len(moves))
	for _, m := range moves {
		planned[m.Vertex] = m.Target
	}
	plannedLookup := func(v VertexID) int {
		if s, ok := planned[v]; ok {
			return s
		}
		return c.dir.Lookup(v)
	}
	if placementCut(adj, plannedLookup) >= placementCut(adj, c.dir.Lookup) {
		return 0, planErr
	}
	moved, err := c.MigrateBatch(moves)
	return moved, errors.Join(planErr, err)
}

// startRebalancer launches the background loop (Config.RebalanceInterval).
func (c *Cluster) startRebalancer() {
	c.rebal.stop = make(chan struct{})
	c.rebal.done = make(chan struct{})
	go func() {
		defer close(c.rebal.done)
		t := time.NewTicker(c.cfg.RebalanceInterval)
		defer t.Stop()
		for {
			select {
			case <-c.rebal.stop:
				return
			case <-t.C:
				_, err := c.RebalanceOnce()
				c.rebal.mu.Lock()
				if err != nil {
					c.rebal.stats.LastError = err.Error()
				} else {
					c.rebal.stats.LastError = ""
				}
				c.rebal.mu.Unlock()
				if err != nil && !c.closed.Load() {
					fmt.Fprintf(os.Stderr, "weaver: background rebalance: %v\n", err)
				}
			}
		}
	}()
}

// stopRebalancer stops the background loop and waits for an in-flight
// cycle to finish (Close calls it before stopping the servers, so a cycle
// never runs against half-stopped gatekeepers).
func (c *Cluster) stopRebalancer() {
	if c.rebal.stop == nil {
		return
	}
	close(c.rebal.stop)
	<-c.rebal.done
	c.rebal.stop = nil
}
