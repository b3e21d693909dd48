package weaver

// Tests for online heat-driven repartitioning (§4.6): the batched
// migration protocol, its correctness fixes (source eviction, failed-commit
// atomicity, full-adjacency rebalancing with surfaced errors), heat
// tracking, and the background rebalancer.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"weaver/internal/graph"
	"weaver/internal/kvstore"
	"weaver/internal/partition"
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
	var hist uint64
	for _, b := range st.PauseHist {
		hist += b
	}
	if hist != 1 || st.PauseTotal <= 0 {
		t.Fatalf("pause histogram not recorded: %+v", st)
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
	cfg.RebalanceSlack = 1.0
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

// Opening with a rebalance interval but no assignable directory must fail
// fast instead of silently never rebalancing.
func TestRebalancerRequiresMappedDirectory(t *testing.T) {
	cfg := testConfig(1, 2)
	cfg.RebalanceInterval = time.Millisecond
	if _, err := Open(cfg); err == nil {
		t.Fatal("Open must reject RebalanceInterval without an assignable directory")
	}
}
