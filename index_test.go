// Secondary-index suite (internal/index): timestamp-consistent lookups
// and range queries over vertex properties — exact at any pinned past
// timestamp and stable across batched vertex migration and version garbage
// collection. TestStress/index checks every lookup against a brute-force
// scan under concurrent writers.
package weaver_test

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"weaver"
	"weaver/internal/gatekeeper"
	"weaver/internal/nodeprog"
)

// indexConfig is a small cluster with secondary indexes, aggressive GC,
// and an assignable directory so migration batches can run. Announce/NOP
// cadences stay at their defaults, as in TestStress's index configurations.
func indexConfig(shards int) weaver.Config {
	return weaver.Config{
		Gatekeepers: 2,
		Shards:      shards,
		GCPeriod:    3 * time.Millisecond,
		ProgTimeout: 30 * time.Second,
		Directory:   weaver.NewMappedDirectory(shards),
		Indexes:     []weaver.IndexSpec{{Key: "city"}},
	}
}

func sortedIDs(ids []weaver.VertexID) []weaver.VertexID {
	out := append([]weaver.VertexID{}, ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameIDSet(t *testing.T, label string, got, want []weaver.VertexID) {
	t.Helper()
	g, w := sortedIDs(got), sortedIDs(want)
	if len(g) == 0 && len(w) == 0 {
		return
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: got %v want %v", label, g, w)
	}
}

func TestIndexLookupEndToEnd(t *testing.T) {
	c, err := weaver.Open(indexConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.Client()

	user := func(i int) weaver.VertexID { return weaver.VertexID(fmt.Sprintf("user/%02d", i)) }
	if _, err := cl.RunTx(func(tx *weaver.Tx) error {
		for i := 0; i < 12; i++ {
			tx.CreateVertex(user(i))
			city := "ithaca"
			if i%3 == 0 {
				city = "nyc"
			}
			tx.SetProperty(user(i), "city", city)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var ithaca, nyc []weaver.VertexID
	for i := 0; i < 12; i++ {
		if i%3 == 0 {
			nyc = append(nyc, user(i))
		} else {
			ithaca = append(ithaca, user(i))
		}
	}
	got, _, err := cl.Lookup("city", "ithaca")
	if err != nil {
		t.Fatal(err)
	}
	sameIDSet(t, "lookup ithaca", got, ithaca)
	got, _, err = cl.Lookup("city", "nyc")
	if err != nil {
		t.Fatal(err)
	}
	sameIDSet(t, "lookup nyc", got, nyc)

	// Range over the whole alphabet returns everything; a tight range
	// only its band.
	all, _, err := cl.LookupWhere(0, weaver.Where{Key: "city", Op: weaver.OpGe, Value: ""})
	if err != nil {
		t.Fatal(err)
	}
	sameIDSet(t, "range all", all, append(append([]weaver.VertexID{}, ithaca...), nyc...))
	band, _, err := cl.LookupWhere(0,
		weaver.Where{Key: "city", Op: weaver.OpGe, Value: "i"},
		weaver.Where{Key: "city", Op: weaver.OpLe, Value: "j"})
	if err != nil {
		t.Fatal(err)
	}
	sameIDSet(t, "range [i,j]", band, ithaca)

	// Unindexed key: typed error.
	if _, _, err := cl.Lookup("zip", "14850"); !errors.Is(err, weaver.ErrNoIndex) {
		t.Fatalf("lookup on unindexed key: err=%v, want ErrNoIndex", err)
	}
	// Historical lookup at the zero timestamp: an error, never a silent
	// current-mode read (zero means "fresh snapshot" to the gatekeeper).
	if _, err := cl.At(weaver.Timestamp{}).Lookup("city", "ithaca"); err == nil {
		t.Fatal("zero-timestamp historical lookup did not fail")
	}

	// Index-selected node program start set: count_edges from every
	// ithaca user at one consistent snapshot.
	res, _, err := cl.RunProgramWhere("count_edges", nil, "city", "ithaca")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ithaca) {
		t.Fatalf("RunProgramWhere visited %d vertices, want %d", len(res), len(ithaca))
	}
	// Empty selector: no program launched, no error.
	res, _, err = cl.RunProgramWhere("count_edges", nil, "city", "atlantis")
	if err != nil || len(res) != 0 {
		t.Fatalf("empty selector: res=%v err=%v", res, err)
	}

	// Deleting the property and the vertex both retire postings.
	if _, err := cl.RunTx(func(tx *weaver.Tx) error {
		tx.DelProperty(ithaca[0], "city")
		tx.DeleteVertex(ithaca[1])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got, _, err = cl.Lookup("city", "ithaca")
	if err != nil {
		t.Fatal(err)
	}
	sameIDSet(t, "lookup after retire", got, ithaca[2:])

	st := c.Stats()
	var lookups uint64
	for _, sh := range st.Shards {
		lookups += sh.IndexLookups
	}
	if lookups == 0 {
		t.Fatal("shards report zero index lookups")
	}
}

// A lookup with no predicate is the caller's mistake, not a failed
// program: every lookup entry point refuses it with ErrInvalid.
func TestEmptyConjunctionIsInvalid(t *testing.T) {
	c, err := weaver.Open(indexConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.Client()
	_, _, freshErr := cl.LookupWhere(0)
	_, pinnedErr := cl.At(cl.Snapshot()).LookupWhere(0)
	_, _, explainErr := cl.ExplainWhere(0)
	for name, err := range map[string]error{"LookupWhere": freshErr, "ReadClient.LookupWhere": pinnedErr, "ExplainWhere": explainErr} {
		if !errors.Is(err, weaver.ErrInvalid) || errors.Is(err, gatekeeper.ErrProgFailed) {
			t.Errorf("%s with no predicate: err = %v, want ErrInvalid and not ErrProgFailed", name, err)
		}
	}
}

// TestIndexHistoricalLookupAcrossMigrationAndGC is the acceptance
// scenario: a Lookup at a pinned snapshot taken before a property change
// returns the old result set while concurrent writers commit new values —
// across at least one MigrateBatch and one GC cycle.
func TestIndexHistoricalLookupAcrossMigrationAndGC(t *testing.T) {
	const n = 16
	c, err := weaver.Open(indexConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.Client()
	user := func(i int) weaver.VertexID { return weaver.VertexID(fmt.Sprintf("u%02d", i)) }

	// Churn before the pin: every vertex passes through a temporary city
	// first, so superseded postings exist BELOW the future pin and a GC
	// cycle can demonstrably collect them while the pin is held.
	if _, err := cl.RunTx(func(tx *weaver.Tx) error {
		for i := 0; i < n; i++ {
			tx.CreateVertex(user(i))
			tx.SetProperty(user(i), "city", "tmp")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunTx(func(tx *weaver.Tx) error {
		for i := 0; i < n; i++ {
			tx.SetProperty(user(i), "city", "a")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	all := make([]weaver.VertexID, n)
	for i := range all {
		all[i] = user(i)
	}

	snap, err := c.SnapshotTS()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	// Wait for a GC cycle to trim the tmp postings (2 per vertex became
	// 1): the cluster-wide resident posting count must drop to n while
	// the pin holds the "a" history.
	deadline := time.Now().Add(20 * time.Second)
	for {
		var postings uint64
		for _, sh := range c.Stats().Shards {
			postings += sh.IndexPostings
		}
		if postings == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("GC never trimmed tmp postings (still %d resident)", postings)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Concurrent writers commit new values after the pin.
	if _, err := cl.RunTx(func(tx *weaver.Tx) error {
		for i := 0; i < n/2; i++ {
			tx.SetProperty(user(i), "city", "b")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Batch-migrate half the indexed vertices (including flipped and
	// unflipped ones) to the other shard: posting history must move.
	var moves []weaver.Move
	for i := 0; i < n; i += 3 {
		home := c.Directory().Lookup(user(i))
		moves = append(moves, weaver.Move{Vertex: user(i), Target: 1 - home})
	}
	if moved, err := c.MigrateBatch(moves); err != nil || moved != len(moves) {
		t.Fatalf("MigrateBatch moved %d err=%v, want %d", moved, err, len(moves))
	}

	// The pinned lookup sees the pre-flip world, equality and range.
	rc := cl.At(snap.TS())
	old, err := rc.Lookup("city", "a")
	if err != nil {
		t.Fatal(err)
	}
	sameIDSet(t, "pinned lookup a", old, all)
	if ids, err := rc.Lookup("city", "b"); err != nil || len(ids) != 0 {
		t.Fatalf("pinned lookup b: ids=%v err=%v, want empty", ids, err)
	}
	oldRange, err := rc.LookupWhere(0,
		weaver.Where{Key: "city", Op: weaver.OpGe, Value: "a"},
		weaver.Where{Key: "city", Op: weaver.OpLe, Value: "z"})
	if err != nil {
		t.Fatal(err)
	}
	sameIDSet(t, "pinned range", oldRange, all)

	// The current lookup sees the flip.
	curA, _, err := cl.Lookup("city", "a")
	if err != nil {
		t.Fatal(err)
	}
	sameIDSet(t, "current lookup a", curA, all[n/2:])
	curB, _, err := cl.Lookup("city", "b")
	if err != nil {
		t.Fatal(err)
	}
	sameIDSet(t, "current lookup b", curB, all[:n/2])

	// Release the pin: reads at the snapshot must degrade to the typed
	// staleness error, never to wrong data.
	snap.Close()
	deadline = time.Now().Add(20 * time.Second)
	for {
		ids, err := rc.Lookup("city", "a")
		if err != nil {
			if !errors.Is(err, weaver.ErrStaleSnapshot) {
				t.Fatalf("released snapshot failed untyped: %v", err)
			}
			break
		}
		if len(ids) != n {
			t.Fatalf("released snapshot returned wrong data: %d ids, want %d (or ErrStaleSnapshot)", len(ids), n)
		}
		if time.Now().After(deadline) {
			t.Fatal("GC watermark never passed the released snapshot")
		}
		// Keep clocks and watermarks moving.
		if _, err := cl.RunTx(func(tx *weaver.Tx) error {
			tx.SetProperty(user(n-1), "city", "a")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestIndexSurvivesDurableReopen: indexes are rebuilt from backing-store
// records on recovery, so a durable cluster answers lookups immediately
// after reopen.
func TestIndexSurvivesDurableReopen(t *testing.T) {
	wal := t.TempDir() + "/wal"
	cfg := weaver.Config{
		Gatekeepers: 1,
		Shards:      2,
		WALPath:     wal,
		Indexes:     []weaver.IndexSpec{{Key: "city"}},
	}
	c, err := weaver.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *weaver.Tx) error {
		for i := 0; i < 8; i++ {
			v := weaver.VertexID(fmt.Sprintf("d%d", i))
			tx.CreateVertex(v)
			if i%2 == 0 {
				tx.SetProperty(v, "city", "even")
			} else {
				tx.SetProperty(v, "city", "odd")
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := weaver.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ids, _, err := c2.Client().Lookup("city", "even")
	if err != nil {
		t.Fatal(err)
	}
	sameIDSet(t, "post-reopen lookup", ids, []weaver.VertexID{"d0", "d2", "d4", "d6"})
}

// TestIndexBulkLoadGraph: BulkLoadGraph populates indexes during parallel
// ingest, and RunProgramWhere composes the selector with traversal.
func TestIndexBulkLoadGraph(t *testing.T) {
	c, err := weaver.Open(weaver.Config{
		Gatekeepers: 1,
		Shards:      2,
		Directory:   weaver.NewMappedDirectory(2),
		Indexes:     []weaver.IndexSpec{{Key: "kind"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var vs []weaver.BulkVertex
	var edges []weaver.BulkEdge
	for i := 0; i < 20; i++ {
		id := weaver.VertexID(fmt.Sprintf("b%02d", i))
		kind := "leaf"
		if i < 4 {
			kind = "root"
		}
		vs = append(vs, weaver.BulkVertex{ID: id, Props: map[string]string{"kind": kind}})
		if i >= 4 {
			edges = append(edges, weaver.BulkEdge{
				From: weaver.VertexID(fmt.Sprintf("b%02d", i%4)),
				To:   id,
			})
		}
	}
	if _, err := c.BulkLoadGraph(vs, edges); err != nil {
		t.Fatal(err)
	}

	roots, _, err := c.Client().Lookup("kind", "root")
	if err != nil {
		t.Fatal(err)
	}
	sameIDSet(t, "bulk roots", roots, []weaver.VertexID{"b00", "b01", "b02", "b03"})

	// Traverse from the index selector: every vertex is reachable from
	// the roots, so the visit set is the whole graph.
	res, _, err := c.Client().RunProgramWhere("traverse", nodeprog.Encode(nodeprog.TraverseParams{}), "kind", "root")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 20 {
		t.Fatalf("traverse from selector visited %d vertices, want 20", len(res))
	}

	// Bulk-loaded postings must survive migration like transactional
	// ones.
	home := c.Directory().Lookup("b00")
	if _, err := c.MigrateBatch([]weaver.Move{{Vertex: "b00", Target: 1 - home}}); err != nil {
		t.Fatal(err)
	}
	roots, _, err = c.Client().Lookup("kind", "root")
	if err != nil {
		t.Fatal(err)
	}
	sameIDSet(t, "bulk roots after migrate", roots, []weaver.VertexID{"b00", "b01", "b02", "b03"})
}

// TestGetVertexDurableReadContract pins Client.GetVertex's documented
// contract: it is a durable-state read of the backing store — it always
// observes committed writes immediately (commits reach the store before
// shards), and it can therefore run AHEAD of the ordering machinery that
// snapshot reads (GetNode, Lookup) wait on.
func TestGetVertexDurableReadContract(t *testing.T) {
	c, err := weaver.Open(weaver.Config{
		Gatekeepers: 1,
		Shards:      1,
		ProgTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.Client()

	if _, err := cl.RunTx(func(tx *weaver.Tx) error {
		tx.CreateVertex("v")
		tx.SetProperty("v", "n", "1")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Read-your-committed-writes, immediately, no quiesce.
	d, alive, err := cl.GetVertex("v")
	if err != nil || !alive || d.Props["n"] != "1" {
		t.Fatalf("GetVertex after commit: %+v alive=%v err=%v, want n=1", d, alive, err)
	}

	// Halt the only shard: the ordering machinery can no longer answer,
	// but commits still land in the backing store — and GetVertex sees
	// them while GetNode (the snapshot path) cannot.
	c.CrashShard(0)
	if _, err := cl.RunTx(func(tx *weaver.Tx) error {
		tx.SetProperty("v", "n", "2")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	d, alive, err = cl.GetVertex("v")
	if err != nil || !alive || d.Props["n"] != "2" {
		t.Fatalf("GetVertex with shard down: %+v alive=%v err=%v, want n=2", d, alive, err)
	}
	if _, _, err := cl.GetNode("v"); err == nil {
		t.Fatal("GetNode answered with the shard down: the snapshot path must not serve unordered state")
	}
}
