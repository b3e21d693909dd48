package weaver

import (
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"weaver/internal/graph"
	"weaver/internal/kvstore"
	"weaver/internal/nodeprog"
	"weaver/internal/partition"
)

func TestConnectedComponentAndLabelPropagation(t *testing.T) {
	c := openTest(t, testConfig(2, 3))
	cl := c.Client()
	// Two disjoint chains: a0→a1→a2 and b0→b1.
	if _, err := cl.RunTx(func(tx *Tx) error {
		for _, v := range []VertexID{"a0", "a1", "a2", "b0", "b1"} {
			tx.CreateVertex(v)
		}
		tx.CreateEdge("a0", "a1")
		tx.CreateEdge("a1", "a2")
		tx.CreateEdge("b0", "b1")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A reachable set is an unbounded, unfiltered traversal.
	comp, _, err := cl.Traverse("a0", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(comp)
	if !slices.Equal(comp, []VertexID{"a0", "a1", "a2"}) {
		t.Fatalf("component of a0 = %v", comp)
	}
	for _, v := range comp {
		if v == "b0" || v == "b1" {
			t.Fatalf("component leaked across graphs: %v", comp)
		}
	}
	reach, _, err := cl.Traverse("b0", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(reach)
	if !slices.Equal(reach, []VertexID{"b0", "b1"}) {
		t.Fatalf("set of b0 = %v, want [b0 b1]", reach)
	}
	// A batch of degrees is get_node from several start vertices.
	res, _, err := cl.RunProgram("get_node", nil, "a0", "a1", "a2", "b0")
	if err != nil {
		t.Fatal(err)
	}
	degs := make(map[VertexID]int, len(res))
	for _, r := range res {
		var d nodeprog.NodeData
		if err := nodeprog.Decode(r, &d); err != nil {
			t.Fatal(err)
		}
		degs[d.ID] = d.NumEdges
	}
	if degs["a0"] != 1 || degs["a2"] != 0 || degs["b0"] != 1 {
		t.Fatalf("degrees %v", degs)
	}
}

func TestMigrateVertex(t *testing.T) {
	cfg := testConfig(2, 3)
	cfg.Directory = partition.NewMapped(partition.NewHash(3))
	c := openTest(t, cfg)
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("mover")
		tx.SetProperty("mover", "k", "v1")
		tx.CreateVertex("peer")
		tx.CreateEdge("mover", "peer")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	src := c.Directory().Lookup("mover")
	dst := (src + 1) % 3

	if _, err := c.MigrateBatch([]Move{{"mover", dst}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Directory().Lookup("mover"); got != dst {
		t.Fatalf("directory still routes to %d", got)
	}
	// Reads route to the new home and see current state.
	d, ok, err := cl.GetNode("mover")
	if err != nil || !ok || d.Props["k"] != "v1" || d.NumEdges != 1 {
		t.Fatalf("post-migration read: %+v ok=%v err=%v", d, ok, err)
	}
	// Writes land on the new home.
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.SetProperty("mover", "k", "v2")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	d, _, _ = cl.GetNode("mover")
	if d.Props["k"] != "v2" {
		t.Fatalf("post-migration write invisible: %+v", d)
	}
	// Traversals hop through the migrated vertex.
	ids, _, err := cl.Traverse("mover", "", "", 0)
	if err != nil || len(ids) != 2 {
		t.Fatalf("post-migration traverse: %v %v", ids, err)
	}
	// Migrating to the same shard is a no-op; a bad shard errors.
	if moved, err := c.MigrateBatch([]Move{{"mover", dst}}); err != nil || moved != 0 {
		t.Fatalf("same-shard migration: moved=%d err=%v", moved, err)
	}
	if _, err := c.MigrateBatch([]Move{{"mover", 99}}); err == nil {
		t.Fatal("bad shard must fail")
	}
}

func TestMigrateRequiresMappedDirectory(t *testing.T) {
	c := openTest(t, testConfig(1, 2))
	if _, err := c.MigrateBatch([]Move{{"x", 0}}); err == nil {
		t.Fatal("hash directory must refuse migration")
	}
}

func TestClusterWALDurability(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "weaver.wal")
	cfg := testConfig(1, 2)
	cfg.WALPath = wal
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("durable")
		tx.SetProperty("durable", "k", "v")
		tx.CreateVertex("other")
		tx.CreateEdge("durable", "other")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: shards recover their partitions from the replayed WAL.
	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	cl2 := c2.Client()
	d, ok, err := cl2.GetNode("durable")
	if err != nil || !ok || d.Props["k"] != "v" || d.NumEdges != 1 {
		t.Fatalf("recovered state wrong: %+v ok=%v err=%v", d, ok, err)
	}
	ids, _, err := cl2.Traverse("durable", "", "", 0)
	if err != nil || len(ids) != 2 {
		t.Fatalf("post-restart traverse: %v %v", ids, err)
	}
	// And the reopened cluster accepts new writes.
	if _, err := cl2.RunTx(func(tx *Tx) error {
		tx.CreateVertex("new-era")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGCPrunesOldVersionsEndToEnd(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.GCPeriod = 2 * time.Millisecond
	c := openTest(t, cfg)
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("gc")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Generate superseded versions.
	for i := 0; i < 20; i++ {
		if _, err := cl.RunTx(func(tx *Tx) error {
			tx.SetProperty("gc", "n", fmt.Sprintf("%d", i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// GC must collect superseded property versions and oracle events.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var collected uint64
		for _, s := range c.Stats().Shards {
			collected += s.GCCollected
		}
		if collected >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("GC never pruned; stats %+v", c.Stats().Shards)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Current state is intact.
	d, ok, err := cl.GetNode("gc")
	if err != nil || !ok || d.Props["n"] != "19" {
		t.Fatalf("GC damaged live state: %+v ok=%v err=%v", d, ok, err)
	}
}

// Demand paging (§6.1): with a shard memory cap, cold vertices are paged
// out after the GC watermark passes them and transparently paged back in
// from the backing store when a node program touches them.
func TestDemandPaging(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.GCPeriod = 2 * time.Millisecond
	cfg.MaxShardVertices = 10
	c := openTest(t, cfg)
	cl := c.Client()

	const n = 100
	for lo := 0; lo < n; lo += 20 {
		lo := lo
		if _, err := cl.RunTx(func(tx *Tx) error {
			for i := lo; i < lo+20; i++ {
				v := VertexID(fmt.Sprintf("pg%d", i))
				tx.CreateVertex(v)
				tx.SetProperty(v, "n", fmt.Sprintf("%d", i))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Wait for eviction to bring residency under the cap.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var resident, pagedOut uint64
		for _, s := range c.Stats().Shards {
			resident += s.VersionsLive
			pagedOut += s.PagedOut
		}
		if pagedOut > 0 && resident <= uint64(2*cfg.MaxShardVertices) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("eviction never engaged: %+v", c.Stats().Shards)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Every vertex — resident or paged out — must still read correctly.
	for i := 0; i < n; i++ {
		v := VertexID(fmt.Sprintf("pg%d", i))
		d, ok, err := cl.GetNode(v)
		if err != nil || !ok {
			t.Fatalf("vertex %s unreadable after paging: ok=%v err=%v", v, ok, err)
		}
		if d.Props["n"] != fmt.Sprintf("%d", i) {
			t.Fatalf("vertex %s corrupted: %+v", v, d)
		}
	}
	var pagedIn uint64
	for _, s := range c.Stats().Shards {
		pagedIn += s.PagedIn
	}
	if pagedIn == 0 {
		t.Fatal("no page-ins recorded despite evictions")
	}
	// Paged-in vertices accept writes and traversals afterwards.
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.SetProperty("pg0", "n", "updated")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	d, _, _ := cl.GetNode("pg0")
	if d.Props["n"] != "updated" {
		t.Fatalf("post-paging write invisible: %+v", d)
	}
}

// A stored epoch that is not 8 bytes cannot be read, so the cluster cannot
// resume above it: Open must fail rather than restart at epoch 1, where new
// timestamps could order before pre-restart ones.
func TestOpenRejectsMalformedEpoch(t *testing.T) {
	cfg := testConfig(1, 2)
	cfg.WALPath = filepath.Join(t.TempDir(), "weaver.wal")
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := reopenAfterRewrite(t, cfg, epochKey, []byte{0, 0, 1}); err == nil {
		t.Fatal("Open accepted a 3-byte stored epoch")
	} else if !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("Open error does not name the epoch: %v", err)
	}
}

// A vertex record that does not decode fails a durable reopen, naming its
// key: opening without it would serve the vertex as absent.
func TestOpenRejectsUndecodableRecord(t *testing.T) {
	cfg := testConfig(1, 2)
	cfg.WALPath = filepath.Join(t.TempDir(), "weaver.wal")
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Client().RunTx(func(tx *Tx) error {
		tx.CreateVertex("good")
		tx.CreateVertex("bad")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	bad := graph.VertexKey("bad")
	if err := reopenAfterRewrite(t, cfg, bad, []byte{0, 0, 1}); err == nil {
		t.Fatal("Open accepted a 3-byte vertex record")
	} else if !strings.Contains(err.Error(), strconv.Quote(bad)) {
		t.Fatalf("Open error does not name the record's key: %v", err)
	}
}

// reopenAfterRewrite overwrites key with val in the store of the closed
// durable cluster cfg describes, then reopens the cluster and returns
// Open's error (closing the cluster if it opened).
func reopenAfterRewrite(t *testing.T, cfg Config, key string, val []byte) error {
	t.Helper()
	st, err := kvstore.NewDurable(cfg.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	tx := st.Begin()
	if err := tx.Put(key, val); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := Open(cfg)
	if err == nil {
		c.Close()
	}
	return err
}
