package weaver

// Tests for online heat-driven repartitioning (§4.6): the batched
// migration protocol, its correctness fixes (source eviction, failed-commit
// atomicity, full-adjacency rebalancing with surfaced errors), heat
// tracking, and the background rebalancer.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"weaver/internal/graph"
	"weaver/internal/kvstore"
	"weaver/internal/partition"
	"weaver/internal/workload"
)

// Migration must evict the source shard's in-memory copy: before this fix
// the stale chain lingered forever — unbounded memory on churn, and a
// shard-local read of the old copy was possible via direct graph access.
func TestMigrateEvictsSourceCopy(t *testing.T) {
	c := openTest(t, mappedConfig(1, 2))
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("mover")
		tx.SetProperty("mover", "k", "v")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	src := c.Directory().Lookup("mover")
	dst := (src + 1) % 2
	if !c.shardAt(src).Graph().Has("mover") {
		t.Fatal("setup: source shard does not hold the vertex")
	}

	if err := c.Migrate("mover", dst); err != nil {
		t.Fatal(err)
	}
	if c.shardAt(src).Graph().Has("mover") {
		t.Fatal("source shard still resolves the vertex after migration")
	}
	if !c.shardAt(dst).Graph().Has("mover") {
		t.Fatal("target shard does not hold the vertex after migration")
	}
	// The vertex stays fully readable and writable at its new home.
	d, ok, err := cl.GetNode("mover")
	if err != nil || !ok || d.Props["k"] != "v" {
		t.Fatalf("post-migration read: %+v ok=%v err=%v", d, ok, err)
	}
}

// failCommitBacking injects a commit failure into the cluster-level
// backing-store handle (gatekeepers keep their own working handle, so
// regular traffic is unaffected — only migration's batch transaction
// fails).
type failCommitBacking struct {
	kvstore.Backing
}

func (f failCommitBacking) Begin() kvstore.Txn { return failCommitTxn{f.Backing.Begin()} }

type failCommitTxn struct{ kvstore.Txn }

func (failCommitTxn) Commit() error { return errors.New("injected commit failure") }

// A failed backing-store commit must leave no phantom copy on the target
// shard: before this fix the record was installed on the target BEFORE the
// commit, so a commit failure left a copy with no directory entry pointing
// at it.
func TestMigrateFailedCommitLeavesNoPhantom(t *testing.T) {
	c := openTest(t, mappedConfig(1, 2))
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("p")
		tx.SetProperty("p", "k", "v")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	src := c.Directory().Lookup("p")
	dst := (src + 1) % 2

	realKV := c.kv
	c.kv = failCommitBacking{realKV}
	err := c.Migrate("p", dst)
	c.kv = realKV
	if err == nil {
		t.Fatal("migration with failing commit must error")
	}

	if c.shardAt(dst).Graph().Has("p") {
		t.Fatal("target shard holds a phantom copy after failed commit")
	}
	if !c.shardAt(src).Graph().Has("p") {
		t.Fatal("source copy lost after failed commit")
	}
	if got := c.Directory().Lookup("p"); got != src {
		t.Fatalf("directory repointed to %d after failed commit", got)
	}
	// The cluster keeps serving the vertex from its original home.
	d, ok, rerr := cl.GetNode("p")
	if rerr != nil || !ok || d.Props["k"] != "v" {
		t.Fatalf("read after failed migration: %+v ok=%v err=%v", d, ok, rerr)
	}
	// And a real migration still succeeds afterwards.
	if err := c.Migrate("p", dst); err != nil {
		t.Fatal(err)
	}
	if got := c.Directory().Lookup("p"); got != dst {
		t.Fatalf("follow-up migration did not move the vertex: %d", got)
	}
}

// MigrateBatch's contract: N moves, ONE gatekeeper pause/resume cycle.
func TestMigrateBatchSinglePause(t *testing.T) {
	const shards = 3
	c := openTest(t, mappedConfig(2, shards))
	cl := c.Client()
	const n = 6
	var ids []VertexID
	if _, err := cl.RunTx(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			v := VertexID(fmt.Sprintf("b%d", i))
			ids = append(ids, v)
			tx.CreateVertex(v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	before := c.Stats().Gatekeepers
	moves := make([]Move, n)
	for i, v := range ids {
		moves[i] = Move{Vertex: v, Target: (c.Directory().Lookup(v) + 1) % shards}
	}
	moved, err := c.MigrateBatch(moves)
	if err != nil {
		t.Fatal(err)
	}
	if moved != n {
		t.Fatalf("moved %d of %d", moved, n)
	}
	after := c.Stats().Gatekeepers
	for i := range after {
		if got := after[i].Pauses - before[i].Pauses; got != 1 {
			t.Fatalf("gatekeeper %d paused %d times for one batch of %d moves", i, got, n)
		}
	}
	for i, v := range ids {
		if got := c.Directory().Lookup(v); got != moves[i].Target {
			t.Fatalf("%s routes to %d, want %d", v, got, moves[i].Target)
		}
		if _, ok, err := cl.GetNode(v); err != nil || !ok {
			t.Fatalf("post-batch read of %s: ok=%v err=%v", v, ok, err)
		}
	}
	st := c.Stats().Rebalance
	if st.MovesTotal != n || st.LastBatchSize != n || st.Batches != 1 {
		t.Fatalf("rebalance stats: %+v", st)
	}
	if h := c.Metrics().Histograms["weaver_migrate_pause_seconds"]; h.Count != 1 || h.Sum == 0 || st.PauseMax <= 0 {
		t.Fatalf("pause not recorded: histogram %+v, stats %+v", h, st)
	}

	// Duplicate vertices in one batch are rejected up front.
	if _, err := c.MigrateBatch([]Move{{ids[0], 0}, {ids[0], 1}}); err == nil {
		t.Fatal("duplicate vertex in batch must error")
	}
	// A batch of skippable moves (already home) moves nothing, succeeds.
	moved, err = c.MigrateBatch([]Move{{ids[0], c.Directory().Lookup(ids[0])}})
	if err != nil || moved != 0 {
		t.Fatalf("no-op batch: moved=%d err=%v", moved, err)
	}
}

// RebalanceLDG must see BOTH edge directions: a vertex whose only
// connectivity is in-edges from vertices outside the rebalanced set must
// still be pulled toward those neighbors. Before this fix adjacency was
// built from the scanned set's out-edges only, so "hub" looked isolated
// and stayed put.
func TestRebalanceLDGUsesInEdges(t *testing.T) {
	cfg := mappedConfig(1, 2)
	mapped := cfg.Directory.(*partition.Mapped)
	// Pin placement before creation: fans on shard 1, hub on shard 0.
	mapped.Assign("hub", 0)
	fans := []VertexID{"fan0", "fan1", "fan2", "fan3"}
	for _, f := range fans {
		mapped.Assign(f, 1)
	}
	c := openTest(t, cfg)
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("hub")
		for _, f := range fans {
			tx.CreateVertex(f)
			tx.CreateEdge(f, "hub") // in-edges only; hub has no out-edges
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Duplicate input vertices must plan one move, not a rejected batch:
	// Cluster.Heat can report a vertex from two shards around a migration.
	moved, err := c.RebalanceLDG([]VertexID{"hub", "hub"}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("moved %d, want 1 (in-edges invisible to the partitioner)", moved)
	}
	if got := c.Directory().Lookup("hub"); got != 1 {
		t.Fatalf("hub routes to %d, want 1 (with its fans)", got)
	}
}

// Record read errors during rebalancing must surface, not vanish: before
// this fix a vertex whose record failed to decode was silently skipped and
// placement ran on partial data with no signal.
func TestRebalanceLDGSurfacesReadErrors(t *testing.T) {
	c := openTest(t, mappedConfig(1, 2))
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("good")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Plant a corrupt record in the vertex keyspace.
	tx := c.kv.Begin()
	if err := tx.Put(graph.VertexKey("corrupt"), []byte{0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	_, err := c.RebalanceLDG([]VertexID{"good", "corrupt"}, 0.5)
	if err == nil {
		t.Fatal("rebalance over a corrupt record must return an error")
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("error does not name the unreadable record: %v", err)
	}
}

// Heat tracking end to end: writes and node-program traffic must rank the
// touched vertices in Shard.HeatTopK / Cluster.Heat.
func TestHeatTracking(t *testing.T) {
	c := openTest(t, mappedConfig(1, 2))
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("hot")
		tx.CreateVertex("cold")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := cl.RunTx(func(tx *Tx) error {
			tx.SetProperty("hot", "n", fmt.Sprintf("%d", i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Traverse("hot", "", "", 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	heat := c.Heat(0)
	score := make(map[VertexID]float64)
	for _, h := range heat {
		score[h.Vertex] += h.Heat
	}
	if score["hot"] == 0 {
		t.Fatalf("no heat recorded for the written+visited vertex: %v", heat)
	}
	if score["hot"] <= score["cold"] {
		t.Fatalf("heat ranking wrong: hot=%v cold=%v", score["hot"], score["cold"])
	}
	// Decay drains the table.
	for i := 0; i < 40; i++ {
		c.shardAt(0).DecayHeat(0.5)
		c.shardAt(1).DecayHeat(0.5)
	}
	if left := c.Heat(0); len(left) != 0 {
		t.Fatalf("heat survived full decay: %v", left)
	}
}

// The background rebalancer must converge a badly placed clustered graph:
// cross-shard edge fraction drops and every vertex keeps serving reads.
func TestBackgroundRebalancerReducesEdgeCut(t *testing.T) {
	cfg := mappedConfig(1, 2)
	cfg.RebalanceInterval = 3 * time.Millisecond
	mapped := cfg.Directory.(*partition.Mapped)

	// Two 8-cliques, members deliberately alternated across the shards —
	// the worst placement a locality-aware partitioner can inherit.
	const k = 8
	var cliqueA, cliqueB []VertexID
	for i := 0; i < k; i++ {
		a := VertexID(fmt.Sprintf("a%d", i))
		b := VertexID(fmt.Sprintf("b%d", i))
		cliqueA = append(cliqueA, a)
		cliqueB = append(cliqueB, b)
		mapped.Assign(a, i%2)
		mapped.Assign(b, (i+1)%2)
	}
	var edges [][2]VertexID
	for _, clq := range [][]VertexID{cliqueA, cliqueB} {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				edges = append(edges, [2]VertexID{clq[i], clq[j]})
			}
		}
	}
	c := openTest(t, cfg)
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		for _, clq := range [][]VertexID{cliqueA, cliqueB} {
			for _, v := range clq {
				tx.CreateVertex(v)
			}
		}
		for _, e := range edges {
			tx.CreateEdge(e[0], e[1])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	cutBefore := partition.EdgeCut(c.Directory(), edges)
	if cutBefore == 0 {
		t.Fatal("setup: adversarial placement produced no cross-shard edges")
	}

	// Traversal traffic is the heat signal; keep it flowing while the
	// rebalancer converges.
	deadline := time.Now().Add(15 * time.Second)
	for {
		for _, root := range []VertexID{cliqueA[0], cliqueB[0]} {
			if _, _, err := cl.Traverse(root, "", "", 1); err != nil {
				t.Fatal(err)
			}
		}
		st := c.Stats().Rebalance
		if st.LastError != "" {
			t.Fatalf("background rebalance failed: %s", st.LastError)
		}
		if st.MovesTotal > 0 && partition.EdgeCut(c.Directory(), edges) < cutBefore {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebalancer never improved placement: cut %d -> %d, stats %+v",
				cutBefore, partition.EdgeCut(c.Directory(), edges), st)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Every vertex still serves consistent reads after all the moves, and
	// each clique stays fully connected through its migrated members.
	for _, v := range append(append([]VertexID(nil), cliqueA...), cliqueB...) {
		if _, ok, err := cl.GetNode(v); err != nil || !ok {
			t.Fatalf("read of %s after rebalance: ok=%v err=%v", v, ok, err)
		}
	}
	for _, root := range []VertexID{cliqueA[0], cliqueB[0]} {
		ids, _, err := cl.Traverse(root, "", "", 0)
		if err != nil || len(ids) != k {
			t.Fatalf("clique traversal from %s after rebalance: %d vertices (%v), err=%v", root, len(ids), ids, err)
		}
	}
}

// A vertex paged out of its home shard (demand paging, §6.1) migrates with
// no resident version chain: its record's home and its index postings move,
// and the target faults it in on first access. Fresh reads and lookups find
// it at the new home, a read at a snapshot pinned before the move answers
// with the pre-move value or fails typed, and later writes apply cleanly.
func TestMigratePagedOutVertex(t *testing.T) {
	r := rand.New(rand.NewSource(workload.TestSeed(t)))
	cfg := mappedConfig(2, 2)
	cfg.GCPeriod = 2 * time.Millisecond
	cfg.MaxShardVertices = 4
	cfg.Indexes = []IndexSpec{{Key: "city"}}
	c := openTest(t, cfg)
	cl := c.Client()

	const n = 40
	cities := []string{"ithaca", "nyc", "sf"}
	pv := func(i int) VertexID { return VertexID(fmt.Sprintf("pv%d", i)) }
	city := make(map[VertexID]string, n)
	for i := 0; i < n; i++ {
		city[pv(i)] = cities[r.Intn(len(cities))]
	}
	// Every vertex passes through a first city, so the postings that move
	// carry superseded history as well as the live value.
	for _, final := range []bool{false, true} {
		if _, err := cl.RunTx(func(tx *Tx) error {
			for i := 0; i < n; i++ {
				if !final {
					tx.CreateVertex(pv(i))
					tx.SetProperty(pv(i), "city", "tmp")
				} else {
					tx.SetProperty(pv(i), "city", city[pv(i)])
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	withCity := func(val string) []VertexID {
		var ids []VertexID
		for v, cv := range city {
			if cv == val {
				ids = append(ids, v)
			}
		}
		slices.Sort(ids)
		return ids
	}

	// Wait until some vertex is paged out of its home while the other shard
	// has paged out vertices of its own (so reads fault in there too).
	var v VertexID
	var home int
	deadline := time.Now().Add(10 * time.Second)
	for v == "" {
		for _, i := range r.Perm(n) {
			h := c.Directory().Lookup(pv(i))
			if !c.shardAt(h).Graph().Has(pv(i)) && c.Stats().Shards[1-h].PagedOut > 0 {
				v, home = pv(i), h
				break
			}
		}
		if v == "" && time.Now().After(deadline) {
			t.Fatalf("no vertex was ever paged out: %+v", c.Stats().Shards)
		}
		time.Sleep(2 * time.Millisecond)
	}
	target := 1 - home
	snap, err := c.SnapshotTS()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	if moved, err := c.MigrateBatch([]Move{{Vertex: v, Target: target}}); err != nil || moved != 1 {
		t.Fatalf("MigrateBatch(%s → %d): moved=%d err=%v", v, target, moved, err)
	}
	if got := c.Directory().Lookup(v); got != target {
		t.Fatalf("%s routes to %d, want %d", v, got, target)
	}
	// Lookups first: they answer from the postings without faulting the
	// vertex in, so they see what the move handed the target's index.
	ids, _, err := cl.Lookup("city", city[v])
	if err != nil {
		t.Fatal(err)
	}
	if slices.Sort(ids); !slices.Equal(ids, withCity(city[v])) {
		t.Fatalf("Lookup(city=%s) after the move: got %v want %v", city[v], ids, withCity(city[v]))
	}
	// The pinned snapshot: the pre-move value or the typed refusal.
	at := cl.At(snap.TS())
	if ids, err := at.Lookup("city", city[v]); err != nil && !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("pinned lookup failed with %v, want ErrStaleSnapshot", err)
	} else if err == nil {
		if slices.Sort(ids); !slices.Equal(ids, withCity(city[v])) {
			t.Fatalf("pinned Lookup(city=%s): got %v want %v", city[v], ids, withCity(city[v]))
		}
	}
	if d, ok, err := cl.GetNode(v); err != nil || !ok || d.Props["city"] != city[v] {
		t.Fatalf("fresh read of %s after the move: %+v ok=%v err=%v", v, d, ok, err)
	}
	switch d, ok, err := at.GetNode(v); {
	case err != nil:
		if !errors.Is(err, ErrStaleSnapshot) {
			t.Fatalf("pinned read of %s failed with %v, want ErrStaleSnapshot", v, err)
		}
	case !ok:
		t.Fatalf("pinned read lost %s (wrong data): it existed at the snapshot", v)
	case d.Props["city"] != city[v]:
		t.Fatalf("pinned read of %s returned city=%q, want %q", v, d.Props["city"], city[v])
	}

	// A write after the move applies at the new home without apply errors.
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.SetProperty(v, "city", "moved")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	city[v] = "moved"
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if d, ok, err := cl.GetNode(pv(i)); err != nil || !ok || d.Props["city"] != city[pv(i)] {
			t.Fatalf("read of %s: %+v ok=%v err=%v, want city=%q", pv(i), d, ok, err, city[pv(i)])
		}
	}
	if ids, _, err := cl.Lookup("city", "moved"); err != nil || !slices.Equal(ids, []VertexID{v}) {
		t.Fatalf("Lookup(city=moved): %v err=%v, want [%s]", ids, err, v)
	}
	st := c.Stats().Shards
	for i, s := range st {
		if s.ApplyErrors != 0 {
			t.Fatalf("shard %d: %d apply errors", i, s.ApplyErrors)
		}
	}
	if st[target].PagedIn == 0 {
		t.Fatalf("target shard %d never paged a vertex in: %+v", target, st[target])
	}
}

// Opening with a rebalance interval but no assignable directory must fail
// fast instead of silently never rebalancing.
func TestRebalancerRequiresMappedDirectory(t *testing.T) {
	cfg := testConfig(1, 2)
	cfg.RebalanceInterval = time.Millisecond
	if _, err := Open(cfg); err == nil {
		t.Fatal("Open must reject RebalanceInterval without an assignable directory")
	}
}
