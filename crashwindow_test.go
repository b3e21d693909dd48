package weaver

// Regression tests for crash-window races (§4.3): failures that land in
// the middle of another control-plane operation — a migration batch, a
// pinned time-travel snapshot — must never surface as wrong data.

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// A recovery racing an in-flight MigrateBatch used to corrupt the batch:
// the recovery could replace c.shards[i] between the batch's server
// snapshot and its in-memory install, so the batch installed the moved
// vertex into the dead instance while readers routed to the fresh one.
// MigrateBatch and Manager.Recover now share the reconfiguration lock:
// a recovery that arrives mid-batch must block until the batch commits.
func TestMigrateBatchSerializesWithRecovery(t *testing.T) {
	cfg := mappedConfig(1, 2)
	cfg.HeartbeatTimeout = time.Hour // manager on, detector effectively off
	c := openTest(t, cfg)
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

	recoverDone := make(chan error, 1)
	c.testHookMigrateSnapshotted = func() {
		// The racy window: the batch holds its server snapshot. Kill the
		// target shard and ask for recovery; it must NOT complete while
		// the batch is in flight.
		c.CrashShard(dst)
		go func() { recoverDone <- c.RecoverNow(ShardAddr(dst)) }()
		select {
		case err := <-recoverDone:
			t.Errorf("recovery completed inside the migration window (err=%v)", err)
		case <-time.After(200 * time.Millisecond):
			// Blocked on the reconfig lock, as it must be.
		}
	}
	if _, err := c.MigrateBatch([]Move{{Vertex: "mover", Target: dst}}); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	c.testHookMigrateSnapshotted = nil

	// The deferred recovery now runs; the reborn target shard reloads the
	// batch's committed re-homing from the backing store.
	select {
	case err := <-recoverDone:
		if err != nil {
			t.Fatalf("recovery after batch: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("recovery never completed after the batch released the lock")
	}
	d, ok, err := cl.GetNode("mover")
	if err != nil || !ok || d.Props["k"] != "v" {
		t.Fatalf("migrated vertex after recovery: %+v ok=%v err=%v", d, ok, err)
	}
	if got := c.Directory().Lookup("mover"); got != dst {
		t.Fatalf("directory points at %d, want %d", got, dst)
	}
}

// A recovery racing an in-flight BulkLoad used to corrupt the load the same
// way: the load snapshotted c.shards before pausing and never took the
// reconfiguration lock, so the recovery of a shard it loads INTO could swap
// the instance between that snapshot and the install. The records landed in
// the dead instance's graph — and, the reborn shard having scanned the store
// before the segments were written, nowhere a reader routes to. Bulk loads
// now run inside the same fence as migration batches.
func TestBulkLoadSerializesWithRecovery(t *testing.T) {
	cfg := testConfig(1, 2)
	cfg.HeartbeatTimeout = time.Hour // manager on, detector effectively off
	c := openTest(t, cfg)
	const target = 1
	var load []VertexID
	for i, onTarget := 0, 0; onTarget < 4; i++ {
		v := VertexID(fmt.Sprintf("b%d", i))
		load = append(load, v)
		if c.Directory().Lookup(v) == target {
			onTarget++
		}
	}

	recoverDone := make(chan error, 1)
	fenced := false
	c.testHookMigrateSnapshotted = func() {
		// The racy window: the load holds its server snapshot. Kill a
		// shard it is about to install into and ask for recovery; it must
		// NOT complete while the load is in flight.
		fenced = true
		c.CrashShard(target)
		go func() { recoverDone <- c.RecoverNow(ShardAddr(target)) }()
		select {
		case err := <-recoverDone:
			t.Errorf("recovery completed inside the bulk-load window (err=%v)", err)
		case <-time.After(200 * time.Millisecond):
			// Blocked on the reconfig lock, as it must be.
		}
	}
	if _, err := c.BulkLoad(load, nil); err != nil {
		t.Fatalf("bulk load: %v", err)
	}
	c.testHookMigrateSnapshotted = nil
	if !fenced {
		t.Fatal("the bulk load never entered the shared stop-the-world fence")
	}

	// The deferred recovery now runs; the reborn shard reloads the segments
	// the load wrote to the backing store.
	select {
	case err := <-recoverDone:
		if err != nil {
			t.Fatalf("recovery after the load: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("recovery never completed after the load released the lock")
	}
	cl := c.Client()
	for _, v := range load {
		if _, ok, err := cl.GetNode(v); err != nil || !ok {
			t.Fatalf("bulk-loaded vertex %s after recovery: ok=%v err=%v", v, ok, err)
		}
	}
}

// A pinned snapshot must survive a crash-recovery of the shard holding
// its versions — or fail with the typed ErrStaleSnapshot — never return
// wrong data. Pre-fix, recovery reloaded each vertex wholesale at its
// last committed timestamp, so a pinned read older than that timestamp
// silently saw the vertex as nonexistent. The shard now raises its GC
// watermark to the recovery horizon and refuses older reads instead.
func TestPinnedSnapshotAcrossCrashRecoveryNeverWrongData(t *testing.T) {
	c := openTest(t, faultConfig())
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("pinned")
		tx.SetProperty("pinned", "k", "v1")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	snap, err := c.SnapshotTS()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	// Overwrite after the pin, then crash and recover the vertex's home
	// shard. Recovery truncates resident history to the last committed
	// record — which is v2, after the pin.
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.SetProperty("pinned", "k", "v2")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	home := c.Directory().Lookup("pinned")
	c.CrashShard(home)
	if err := c.RecoverNow(ShardAddr(home)); err != nil {
		t.Fatal(err)
	}

	d, ok, rerr := cl.At(snap.TS()).GetNode("pinned")
	switch {
	case rerr != nil:
		// The one acceptable failure: a typed refusal.
		if !errors.Is(rerr, ErrStaleSnapshot) {
			t.Fatalf("pinned read failed with %v, want ErrStaleSnapshot", rerr)
		}
	case !ok:
		t.Fatal("pinned read silently lost the vertex (wrong data): existed at the snapshot")
	case d.Props["k"] != "v1":
		t.Fatalf("pinned read returned %q, want the pre-pin value \"v1\"", d.Props["k"])
	}

	// Current reads are unaffected: the new epoch is above the horizon.
	d, ok, rerr = cl.GetNode("pinned")
	if rerr != nil || !ok || d.Props["k"] != "v2" {
		t.Fatalf("current read after recovery: %+v ok=%v err=%v", d, ok, rerr)
	}
}

// The same guarantee across a clean restart: a durable reopen rebuilds
// every shard from the backing store's latest records, so a timestamp
// minted before Close can no longer be answered exactly. Pre-fix, Open
// installed the recovered records without raising the recovery horizon and
// a read at such a timestamp came back ok=false, err=nil for a vertex that
// existed — for an overwritten vertex, and equally for one whose latest
// record is a tombstone (the horizon covers tombstones too).
func TestHistoricalReadAcrossDurableReopenNeverWrongData(t *testing.T) {
	cfg := testConfig(1, 2)
	cfg.WALPath = filepath.Join(t.TempDir(), "weaver.wal")
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	commit := func(fn func(tx *Tx)) {
		t.Helper()
		if _, err := cl.RunTx(func(tx *Tx) error { fn(tx); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	commit(func(tx *Tx) {
		tx.CreateVertex("kept")
		tx.SetProperty("kept", "k", "v1")
		tx.CreateVertex("gone")
		tx.SetProperty("gone", "k", "v1")
	})
	beforeOverwrite := cl.Snapshot()
	commit(func(tx *Tx) { tx.SetProperty("kept", "k", "v2") })
	beforeDelete := cl.Snapshot()
	commit(func(tx *Tx) { tx.DeleteVertex("gone") })
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	cl2 := openTest(t, cfg).Client()
	for _, rd := range []struct {
		at Timestamp
		v  VertexID
	}{{beforeOverwrite, "kept"}, {beforeDelete, "gone"}} {
		d, ok, rerr := cl2.At(rd.at).GetNode(rd.v)
		switch {
		case rerr != nil:
			if !errors.Is(rerr, ErrStaleSnapshot) {
				t.Fatalf("read of %s at a pre-restart timestamp failed with %v, want ErrStaleSnapshot", rd.v, rerr)
			}
		case !ok:
			t.Fatalf("read of %s at a pre-restart timestamp silently lost the vertex (wrong data): existed at that timestamp", rd.v)
		case d.Props["k"] != "v1":
			t.Fatalf("read of %s at a pre-restart timestamp returned %q, want \"v1\"", rd.v, d.Props["k"])
		}
	}

	// Fresh reads are unaffected: the new epoch is above the horizon.
	d, ok, rerr := cl2.GetNode("kept")
	if rerr != nil || !ok || d.Props["k"] != "v2" {
		t.Fatalf("fresh read of kept after reopen: %+v ok=%v err=%v", d, ok, rerr)
	}
	if _, ok, rerr := cl2.GetNode("gone"); rerr != nil || ok {
		t.Fatalf("fresh read of the deleted vertex after reopen: ok=%v err=%v", ok, rerr)
	}
}

// The chain-replicated oracle keeps ordering through replica failure and
// rejoin, and a healed replica serves decisions made while it was down.
func TestOracleReplicaFailHealUnderWrites(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.OracleReplicas = 3
	c := openTest(t, cfg)
	cl := c.Client()

	write := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			id := VertexID(fmt.Sprintf("o%d", i))
			if _, err := cl.RunTx(func(tx *Tx) error {
				tx.CreateVertex(id)
				tx.SetProperty(id, "n", fmt.Sprintf("%d", i))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(0, 10)

	if err := c.FailOracleReplica(2); err != nil {
		t.Fatal(err)
	}
	if live := c.OracleReplicasLive(); live != 2 {
		t.Fatalf("live replicas = %d, want 2", live)
	}
	// Ordering decisions keep flowing on the shortened chain.
	write(10, 20)

	if err := c.HealOracleReplica(2); err != nil {
		t.Fatalf("heal: %v", err)
	}
	if live := c.OracleReplicasLive(); live != 3 {
		t.Fatalf("live replicas after heal = %d, want 3", live)
	}
	write(20, 30)
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		id := VertexID(fmt.Sprintf("o%d", i))
		d, ok, err := cl.GetNode(id)
		if err != nil || !ok || d.Props["n"] != fmt.Sprintf("%d", i) {
			t.Fatalf("vertex %s after oracle churn: %+v ok=%v err=%v", id, d, ok, err)
		}
	}
}
