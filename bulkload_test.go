package weaver

// End-to-end tests of the snapshot subsystem: bulk ingest into a live
// cluster, checkpointed recovery with bounded WAL replay, torn-snapshot
// fallback across a full cluster restart, and the concurrent-Close
// contract.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"weaver/internal/graph"
	"weaver/internal/partition"
	"weaver/internal/snapshot"
	"weaver/internal/workload"
)

// bulkTestGraph generates a small social graph and its BulkLoad form.
func bulkTestGraph(n, m int) (*workload.Graph, []VertexID, []BulkEdge) {
	g := workload.Social(n, m, 7)
	edges := make([]BulkEdge, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = BulkEdge{From: e.From, To: e.To}
	}
	return g, g.Vertices, edges
}

// mappedConfig is testConfig plus an assignable directory, engaging LDG
// placement in BulkLoad.
func mappedConfig(gks, shards int) Config {
	cfg := testConfig(gks, shards)
	cfg.Directory = NewMappedDirectory(shards)
	return cfg
}

func TestBulkLoadServesReadsAndWrites(t *testing.T) {
	c := openTest(t, mappedConfig(2, 3))
	g, verts, edges := bulkTestGraph(400, 4)

	st, err := c.BulkLoad(verts, edges)
	if err != nil {
		t.Fatal(err)
	}
	if st.Vertices != len(verts) || st.Edges != len(edges) || !st.LDG {
		t.Fatalf("stats %+v: want %d vertices, %d edges via LDG", st, len(verts), len(edges))
	}
	if st.Segments == 0 || st.SegmentBytes == 0 {
		t.Fatalf("stats %+v: no segments built", st)
	}
	total := 0
	for _, n := range st.PerShard {
		total += n
	}
	if total != len(verts) {
		t.Fatalf("per-shard placement %v sums to %d, want %d", st.PerShard, total, len(verts))
	}

	cl := c.Client()
	// Every vertex is readable with its full out-edge set.
	for _, v := range verts[:50] {
		nd, ok, err := cl.GetNode(v)
		if err != nil || !ok {
			t.Fatalf("GetNode(%s): ok=%v err=%v", v, ok, err)
		}
		if nd.NumEdges != len(g.Out[v]) {
			t.Fatalf("%s has %d edges, want %d", v, nd.NumEdges, len(g.Out[v]))
		}
	}
	// Node programs traverse bulk-loaded topology.
	hub := verts[0]
	ids, _, err := cl.Traverse(hub, "", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + len(g.Out[hub]); len(ids) != want {
		t.Fatalf("depth-1 traverse from %s visited %d, want %d", hub, len(ids), want)
	}

	// Post-load transactions write over loaded vertices: the fresh
	// timestamps must order after the load stamp on every gatekeeper.
	for i := 0; i < 4; i++ {
		gcl, err := c.ClientAt(i % 2)
		if err != nil {
			t.Fatal(err)
		}
		v := verts[i]
		if _, err := gcl.RunTx(func(tx *Tx) error {
			tx.SetProperty(v, "touched", "yes")
			tx.CreateEdge(v, verts[len(verts)-1-i])
			return nil
		}); err != nil {
			t.Fatalf("post-load tx on %s: %v", v, err)
		}
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		nd, ok, err := cl.GetNode(verts[i])
		if err != nil || !ok || nd.Props["touched"] != "yes" {
			t.Fatalf("post-load write to %s not visible: %+v ok=%v err=%v", verts[i], nd, ok, err)
		}
		if nd.NumEdges != len(g.Out[verts[i]])+1 {
			t.Fatalf("%s edge count %d, want %d", verts[i], nd.NumEdges, len(g.Out[verts[i]])+1)
		}
	}
}

func TestBulkLoadRejectsExistingVertex(t *testing.T) {
	c := openTest(t, mappedConfig(1, 2))
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("user/3")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	_, verts, edges := bulkTestGraph(50, 3)
	if _, err := c.BulkLoad(verts, edges); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bulk load over existing vertex: %v, want ErrInvalid", err)
	}
}

func TestBulkLoadImplicitVerticesAndHashFallback(t *testing.T) {
	// No Mapped directory: BulkLoad must fall back to hash placement, and
	// vertices named only in edges must be created.
	c := openTest(t, testConfig(1, 2))
	st, err := c.BulkLoad(nil, []BulkEdge{{"a", "b"}, {"b", "c"}, {"c", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Vertices != 3 || st.LDG {
		t.Fatalf("stats %+v: want 3 implicit vertices, hash placement", st)
	}
	cl := c.Client()
	for _, v := range []VertexID{"a", "b", "c"} {
		nd, ok, err := cl.GetNode(v)
		if err != nil || !ok || nd.NumEdges != 1 {
			t.Fatalf("implicit vertex %s: %+v ok=%v err=%v", v, nd, ok, err)
		}
	}
}

// TestBulkLoadDurableRecovery: a durable bulk load survives a restart —
// via the auto-checkpoint, not WAL records — and LDG placements are
// rebuilt into the directory on reopen.
func TestBulkLoadDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := mappedConfig(1, 2)
	cfg.WALPath = filepath.Join(dir, "weaver.wal")
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, verts, edges := bulkTestGraph(200, 4)
	st, err := c.BulkLoad(verts, edges)
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoint == nil || st.Checkpoint.Seq == 0 {
		t.Fatalf("durable bulk load did not checkpoint: %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	cfg2 := mappedConfig(1, 2)
	cfg2.WALPath = cfg.WALPath
	c2, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rst, ok := c2.RecoveryStats()
	if !ok || rst.SnapshotSeq == 0 {
		t.Fatalf("reopen did not restore from snapshot: %+v ok=%v", rst, ok)
	}
	// The epoch bump is the only thing the reopened store should replay.
	if rst.TailRecords > 1 {
		t.Fatalf("unbounded replay after bulk-load checkpoint: %+v", rst)
	}
	cl := c2.Client()
	for _, v := range verts[:30] {
		nd, ok, err := cl.GetNode(v)
		if err != nil || !ok || nd.NumEdges != len(g.Out[v]) {
			t.Fatalf("recovered %s: %+v ok=%v err=%v (want %d edges)", v, nd, ok, err, len(g.Out[v]))
		}
	}
	// LDG assignments must survive via the record scan: lookups agree
	// with where each record is homed.
	md, ok := c2.Directory().(*partition.Mapped)
	if !ok {
		t.Fatal("directory type lost")
	}
	for _, v := range verts[:30] {
		rec, _, ok, err := gkReadVertex(c2, v)
		if err != nil || !ok {
			t.Fatalf("record read %s: %v", v, err)
		}
		if md.Lookup(v) != rec.Shard {
			t.Fatalf("directory lookup %s = %d, record homed on %d", v, md.Lookup(v), rec.Shard)
		}
	}
}

// gkReadVertex reads a vertex record through gatekeeper 0.
func gkReadVertex(c *Cluster, v VertexID) (*graph.VertexRecord, uint64, bool, error) {
	return c.gkAt(0).ReadVertex(v)
}

// TestClusterCheckpointBoundedReplay is the acceptance recovery test:
// after Checkpoint, reopening replays only the WAL tail written since it,
// with all committed state intact.
func TestClusterCheckpointBoundedReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2, 2)
	cfg.WALPath = filepath.Join(dir, "weaver.wal")
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	const before, after = 30, 5
	for i := 0; i < before; i++ {
		if _, err := cl.RunTx(func(tx *Tx) error {
			tx.CreateVertex(VertexID(fmt.Sprintf("pre/%d", i)))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Seq == 0 || ck.WALRecordsDropped < before {
		t.Fatalf("checkpoint %+v: expected to drop >= %d logged records", ck, before)
	}
	for i := 0; i < after; i++ {
		if _, err := cl.RunTx(func(tx *Tx) error {
			tx.CreateVertex(VertexID(fmt.Sprintf("post/%d", i)))
			tx.SetProperty(VertexID(fmt.Sprintf("post/%d", i)), "k", "v")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rst, ok := c2.RecoveryStats()
	if !ok {
		t.Fatal("no recovery stats on durable cluster")
	}
	if rst.SnapshotSeq != ck.Seq {
		t.Fatalf("recovered snapshot %d, checkpoint wrote %d", rst.SnapshotSeq, ck.Seq)
	}
	// Bounded replay: exactly the post-checkpoint commits (one record
	// each), not the full history.
	if rst.TailRecords != after {
		t.Fatalf("replayed %d WAL records, want the %d-record tail (recovery %+v)", rst.TailRecords, after, rst)
	}
	cl2 := c2.Client()
	for i := 0; i < before; i++ {
		if _, ok, err := cl2.GetNode(VertexID(fmt.Sprintf("pre/%d", i))); err != nil || !ok {
			t.Fatalf("pre-checkpoint vertex %d lost: ok=%v err=%v", i, ok, err)
		}
	}
	for i := 0; i < after; i++ {
		nd, ok, err := cl2.GetNode(VertexID(fmt.Sprintf("post/%d", i)))
		if err != nil || !ok || nd.Props["k"] != "v" {
			t.Fatalf("post-checkpoint vertex %d lost: %+v ok=%v err=%v", i, nd, ok, err)
		}
	}
}

// TestClusterTornCheckpointRecovery: a crash mid-checkpoint (torn newest
// snapshot) must recover from the previous snapshot plus its complete
// WAL — no committed transaction lost.
func TestClusterTornCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(1, 2)
	cfg.WALPath = filepath.Join(dir, "weaver.wal")
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	mustTx := func(fn func(tx *Tx) error) {
		t.Helper()
		if _, err := cl.RunTx(fn); err != nil {
			t.Fatal(err)
		}
	}
	mustTx(func(tx *Tx) error { tx.CreateVertex("alpha"); return nil })
	if _, err := c.Checkpoint(); err != nil { // snapshot 1
		t.Fatal(err)
	}
	mustTx(func(tx *Tx) error { tx.CreateVertex("beta"); return nil }) // WAL era 1 only
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Fabricate a torn snapshot 2, as a crash mid-checkpoint would leave.
	man, err := snapshot.Write(cfg.WALPath, 2, 0, nil, func(yield func(snapshot.Entry) error) error {
		return yield(snapshot.Entry{Key: "junk", Value: []byte("junk"), Version: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, man.Segments[0].Name)
	raw, _ := os.ReadFile(seg)
	if err := os.WriteFile(seg, raw[:len(raw)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rst, _ := c2.RecoveryStats()
	if rst.TornSnapshots != 1 || rst.SnapshotSeq != 1 {
		t.Fatalf("recovery %+v: want torn=1, fallback to snapshot 1", rst)
	}
	cl2 := c2.Client()
	for _, v := range []VertexID{"alpha", "beta"} {
		if _, ok, err := cl2.GetNode(v); err != nil || !ok {
			t.Fatalf("%s lost after torn-checkpoint recovery: ok=%v err=%v", v, ok, err)
		}
	}
}

// TestCloseConcurrent: Close is idempotent and safe from many goroutines
// (the seed's unsynchronized closed flag was a data race).
func TestCloseConcurrent(t *testing.T) {
	c, err := Open(testConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent Close %d: %v", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close after Close: %v", err)
	}
}

// A bulk load holds every gatekeeper's pause lock while it waits in Quiesce
// for applies to be acknowledged. An epoch barrier that arrives meanwhile
// must not take that lock on the gatekeeper's receive loop: the loop is
// what drains the acks, and what delivers the barrier's Enter. Here the
// load's fence can only clear THROUGH the barrier — the one outstanding
// apply was forwarded to a crashed shard, and only the new epoch writes it
// off — so a gatekeeper blocked on its own loop fails the load with a
// quiesce timeout.
func TestRecoverNowRacingBulkLoadCompletes(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.HeartbeatTimeout = time.Hour // manager on, detector effectively off
	c := openTest(t, cfg)
	const dead, live = 1, 0
	var orphan VertexID
	var load []VertexID
	for i := 0; orphan == "" || len(load) < 8; i++ {
		v := VertexID(fmt.Sprintf("v%d", i))
		switch {
		case c.Directory().Lookup(v) == live:
			load = append(load, v)
		case orphan == "":
			orphan = v
		}
	}

	c.CrashShard(dead)
	cl, _ := c.ClientAt(0)
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex(orphan)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	loaded := make(chan error, 1)
	go func() {
		_, err := c.BulkLoad(load, nil)
		loaded <- err
	}()
	// Wait for the load's fence to be up on every gatekeeper.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		fenced := 0
		for _, gk := range c.Stats().Gatekeepers {
			if gk.Pauses > 0 {
				fenced++
			}
		}
		if fenced == cfg.Gatekeepers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bulk load never paused the gatekeepers")
		}
	}
	if err := c.RecoverNow(ShardAddr(dead)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-loaded:
		if err != nil {
			t.Fatalf("bulk load racing a recovery: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("bulk load still fenced after the recovery completed")
	}
	for _, v := range append(load, orphan) {
		if _, ok, err := cl.GetNode(v); err != nil || !ok {
			t.Fatalf("vertex %s after load + recovery: ok=%v err=%v", v, ok, err)
		}
	}
}
