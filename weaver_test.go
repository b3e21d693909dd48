package weaver

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"weaver/internal/nodeprog"
)

// testConfig returns a small fast cluster configuration for tests.
func testConfig(gks, shards int) Config {
	return Config{
		Gatekeepers:    gks,
		Shards:         shards,
		AnnouncePeriod: 200 * time.Microsecond,
		NopPeriod:      100 * time.Microsecond,
		ProgTimeout:    10 * time.Second,
	}
}

func openTest(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBasicTransactionAndRead(t *testing.T) {
	c := openTest(t, testConfig(2, 2))
	cl := c.Client()
	info, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("alice")
		tx.SetProperty("alice", "name", "Alice")
		tx.CreateVertex("bob")
		e := tx.CreateEdge("alice", "bob")
		tx.SetEdgeProperty("alice", e, "kind", "follows")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Edges) != 1 {
		t.Fatalf("expected 1 edge mapping, got %v", info.Edges)
	}
	v, ok, err := cl.GetVertex("alice")
	if err != nil || !ok {
		t.Fatalf("GetVertex: %v %v", ok, err)
	}
	if v.Props["name"] != "Alice" || len(v.Edges) != 1 || v.Edges[0].To != "bob" {
		t.Fatalf("unexpected vertex %+v", v)
	}
	if v.Edges[0].Props["kind"] != "follows" {
		t.Fatalf("edge props lost: %+v", v.Edges[0])
	}
}

func TestNodeProgramSeesCommittedWrites(t *testing.T) {
	c := openTest(t, testConfig(2, 3))
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("u")
		tx.SetProperty("u", "color", "green")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A node program issued after the commit response must see the write
	// (strict serializability, Theorem 2).
	d, ok, err := cl.GetNode("u")
	if err != nil || !ok {
		t.Fatalf("GetNode: ok=%v err=%v", ok, err)
	}
	if d.Props["color"] != "green" {
		t.Fatalf("node program missed committed write: %+v", d)
	}
}

func TestNodeProgramFromOtherGatekeeper(t *testing.T) {
	c := openTest(t, testConfig(3, 2))
	cl0, _ := c.ClientAt(0)
	cl2, _ := c.ClientAt(2)
	if _, err := cl0.RunTx(func(tx *Tx) error {
		tx.CreateVertex("x")
		tx.SetProperty("x", "v", "1")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Read through a different gatekeeper: its clock may be concurrent
	// with the writer's, exercising the timeline oracle path.
	d, ok, err := cl2.GetNode("x")
	if err != nil || !ok || d.Props["v"] != "1" {
		t.Fatalf("cross-gatekeeper read failed: %+v ok=%v err=%v", d, ok, err)
	}
}

func TestTraversalMultiShard(t *testing.T) {
	c := openTest(t, testConfig(2, 4))
	cl := c.Client()
	// Chain v0 → v1 → … → v19 spread across 4 shards.
	if _, err := cl.RunTx(func(tx *Tx) error {
		for i := 0; i < 20; i++ {
			tx.CreateVertex(VertexID(fmt.Sprintf("v%d", i)))
		}
		for i := 0; i < 19; i++ {
			tx.CreateEdge(VertexID(fmt.Sprintf("v%d", i)), VertexID(fmt.Sprintf("v%d", i+1)))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ids, _, err := cl.Traverse("v0", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 20 {
		t.Fatalf("BFS visited %d vertices, want 20: %v", len(ids), ids)
	}
	ok, err := cl.Reachable("v0", "v19")
	if err != nil || !ok {
		t.Fatalf("v19 must be reachable: %v %v", ok, err)
	}
	ok, err = cl.Reachable("v19", "v0")
	if err != nil || ok {
		t.Fatalf("reverse reachability must fail: %v %v", ok, err)
	}
	dist, found, err := cl.ShortestPath("v0", "v10")
	if err != nil || !found || dist != 10 {
		t.Fatalf("shortest path = %d,%v,%v want 10", dist, found, err)
	}
}

func TestTraverseWithEdgeProperty(t *testing.T) {
	c := openTest(t, testConfig(1, 2))
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		for _, v := range []VertexID{"a", "b", "c"} {
			tx.CreateVertex(v)
		}
		e1 := tx.CreateEdge("a", "b")
		tx.SetEdgeProperty("a", e1, "color", "red")
		tx.CreateEdge("a", "c") // unlabeled
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ids, _, err := cl.Traverse("a", "color", "red", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 { // a and b, not c
		t.Fatalf("property-filtered BFS visited %v", ids)
	}
}

func TestTxConflictAndRetry(t *testing.T) {
	c := openTest(t, testConfig(2, 2))
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("ctr")
		tx.SetProperty("ctr", "n", "0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Concurrent increments from many clients: all must be preserved.
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := c.Client()
			for i := 0; i < perWorker; i++ {
				_, err := cl.RunTx(func(tx *Tx) error {
					v, ok, err := tx.GetVertex("ctr")
					if err != nil || !ok {
						return fmt.Errorf("read ctr: %v %v", ok, err)
					}
					var n int
					fmt.Sscanf(v.Props["n"], "%d", &n)
					tx.SetProperty("ctr", "n", fmt.Sprintf("%d", n+1))
					return nil
				})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	v, ok, err := cl.GetVertex("ctr")
	if err != nil || !ok {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%d", workers*perWorker)
	if v.Props["n"] != want {
		t.Fatalf("counter = %s, want %s (lost updates)", v.Props["n"], want)
	}
}

func TestInvalidTransactions(t *testing.T) {
	c := openTest(t, testConfig(1, 1))
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("v")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Duplicate create.
	tx := cl.Begin()
	tx.CreateVertex("v")
	if _, err := tx.Commit(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("duplicate create: %v", err)
	}
	// Delete missing vertex.
	tx = cl.Begin()
	tx.DeleteVertex("ghost")
	if _, err := tx.Commit(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("delete missing: %v", err)
	}
	// Delete then operate in separate txs: deleting twice fails.
	tx = cl.Begin()
	tx.DeleteVertex("v")
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = cl.Begin()
	tx.DeleteVertex("v")
	if _, err := tx.Commit(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("double delete: %v", err)
	}
	// Recreate after delete is legal.
	tx = cl.Begin()
	tx.CreateVertex("v")
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("recreate: %v", err)
	}
}

// The Fig 1 anomaly: a traversal concurrent with an update that deletes
// (n3,n5) and creates (n5,n7) must never see a path through both the old
// and the new edge. With strict serializability the BFS sees the graph
// either entirely before or entirely after the update.
func TestFig1PathAnomalyPrevented(t *testing.T) {
	cfg := testConfig(3, 3)
	// The flip loop below runs unthrottled; at current commit speed it
	// piles millions of versions onto three vertices within the test's
	// runtime. Run with version GC (§4.5) — as any long-lived deployment
	// would — so traversal cost stays bounded by the live window rather
	// than the full flip history. The anomaly assertion is unaffected:
	// GC never collects versions visible to a running traversal.
	cfg.GCPeriod = 5 * time.Millisecond
	c := openTest(t, cfg)
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		for _, v := range []VertexID{"n1", "n3", "n5", "n7"} {
			tx.CreateVertex(v)
		}
		tx.CreateEdge("n1", "n3")
		tx.CreateEdge("n3", "n5")
		// (n5,n7) does not exist yet.
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	v, _, _ := cl.GetVertex("n3")
	oldEdge := v.Edges[0].ID

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := c.Client()
		flip := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !flip {
				// Atomically: delete (n3,n5), create (n5,n7).
				if _, err := w.RunTx(func(tx *Tx) error {
					tx.DeleteEdge("n3", oldEdge)
					tx.CreateEdge("n5", "n7")
					return nil
				}); err != nil {
					continue
				}
				flip = true
			} else {
				// Flip back atomically: re-create (n3,n5), delete (n5,n7).
				var newEdge EdgeID
				vv, _, err := w.GetVertex("n5")
				if err != nil || vv == nil || len(vv.Edges) == 0 {
					continue
				}
				newEdge = vv.Edges[0].ID
				if _, err := w.RunTx(func(tx *Tx) error {
					tx.CreateEdge("n3", "n5")
					tx.DeleteEdge("n5", newEdge)
					return nil
				}); err != nil {
					continue
				}
				vv2, _, _ := w.GetVertex("n3")
				if vv2 != nil && len(vv2.Edges) > 0 {
					oldEdge = vv2.Edges[0].ID
				}
				flip = false
			}
		}
	}()

	// Concurrent traversals: n7 must NEVER be reachable from n1, because
	// no consistent snapshot ever contains both (n3,n5) and (n5,n7).
	reader := c.Client()
	for i := 0; i < 200; i++ {
		ids, _, err := reader.Traverse("n1", "", "", 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if id == "n7" {
				close(stop)
				wg.Wait()
				t.Fatalf("anomaly: traversal %d saw phantom path to n7 via %v", i, ids)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestAtomicMultiVertexVisibility(t *testing.T) {
	c := openTest(t, testConfig(2, 3))
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("hub")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	// Writer: each tx atomically creates a pair of spokes on different
	// shards and links them to hub.
	go func() {
		defer wg.Done()
		w := c.Client()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a := VertexID(fmt.Sprintf("spoke-a-%d", i))
			b := VertexID(fmt.Sprintf("spoke-b-%d", i))
			w.RunTx(func(tx *Tx) error {
				tx.CreateVertex(a)
				tx.CreateVertex(b)
				tx.CreateEdge("hub", a)
				tx.CreateEdge("hub", b)
				return nil
			})
		}
	}()
	// Reader: hub's edge count must always be even (pairs are atomic).
	r := c.Client()
	for i := 0; i < 100; i++ {
		n, err := r.CountEdges("hub")
		if err != nil {
			t.Fatal(err)
		}
		if n%2 != 0 {
			close(stop)
			wg.Wait()
			t.Fatalf("read %d: odd edge count %d — transaction torn", i, n)
		}
	}
	close(stop)
	wg.Wait()
}

func TestHistoricalQuery(t *testing.T) {
	cfg := testConfig(1, 2)
	cfg.GCPeriod = 0
	c := openTest(t, cfg)
	cl := c.Client()
	info1, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("doc")
		tx.SetProperty("doc", "rev", "1")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := cl.Snapshot() // between rev 1 and rev 2
	_ = info1
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.SetProperty("doc", "rev", "2")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Current read sees rev 2.
	d, _, err := cl.GetNode("doc")
	if err != nil || d.Props["rev"] != "2" {
		t.Fatalf("current read: %+v err=%v", d, err)
	}
	// Historical read at snap sees rev 1.
	res, err := cl.At(snap).RunProgram("get_node", nil, "doc")
	if err != nil || len(res) == 0 {
		t.Fatalf("historical read failed: %v", err)
	}
	var hd nodeprog.NodeData
	if err := nodeprog.Decode(res[0], &hd); err != nil {
		t.Fatal(err)
	}
	if hd.Props["rev"] != "1" {
		t.Fatalf("historical read saw rev %q, want 1", hd.Props["rev"])
	}
}

func TestClusteringCoefficientValue(t *testing.T) {
	c := openTest(t, testConfig(1, 3))
	cl := c.Client()
	// Triangle a→b, a→c, b→c: coefficient of a = 1/(2*1) = 0.5.
	if _, err := cl.RunTx(func(tx *Tx) error {
		for _, v := range []VertexID{"a", "b", "c"} {
			tx.CreateVertex(v)
		}
		tx.CreateEdge("a", "b")
		tx.CreateEdge("a", "c")
		tx.CreateEdge("b", "c")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cc, err := cl.ClusteringCoefficient("a")
	if err != nil {
		t.Fatal(err)
	}
	if cc != 0.5 {
		t.Fatalf("clustering coefficient = %v, want 0.5", cc)
	}
}

func TestReadYourOwnCommits(t *testing.T) {
	c := openTest(t, testConfig(2, 2))
	cl := c.Client()
	for i := 0; i < 20; i++ {
		id := VertexID(fmt.Sprintf("ryw-%d", i))
		if _, err := cl.RunTx(func(tx *Tx) error {
			tx.CreateVertex(id)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		d, ok, err := cl.GetNode(id)
		if err != nil || !ok {
			t.Fatalf("iteration %d: just-committed vertex invisible: ok=%v err=%v d=%+v", i, ok, err, d)
		}
	}
}

func TestUnknownProgram(t *testing.T) {
	c := openTest(t, testConfig(1, 1))
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("v")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	_, _, err := cl.RunProgram("no_such_program", nil, "v")
	if err == nil {
		t.Fatal("unknown program must fail")
	}
}

func TestStatsExposed(t *testing.T) {
	c := openTest(t, testConfig(2, 2))
	cl := c.Client()
	cl.RunTx(func(tx *Tx) error { tx.CreateVertex("s"); return nil })
	cl.GetNode("s")
	time.Sleep(5 * time.Millisecond)
	st := c.Stats()
	if len(st.Gatekeepers) != 2 || len(st.Shards) != 2 {
		t.Fatalf("stats shape wrong: %+v", st)
	}
	var committed uint64
	for _, g := range st.Gatekeepers {
		committed += g.TxCommitted
	}
	if committed != 1 {
		t.Fatalf("committed = %d, want 1", committed)
	}
	if st.TotalAnnounces() == 0 {
		t.Fatal("announce loop not running")
	}
}
