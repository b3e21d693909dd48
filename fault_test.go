package weaver

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"weaver/internal/graph"
	"weaver/internal/plan"
	"weaver/internal/workload"
)

func faultConfig() Config {
	cfg := testConfig(2, 2)
	cfg.HeartbeatTimeout = 150 * time.Millisecond
	cfg.ProgTimeout = 2 * time.Second
	return cfg
}

func TestShardCrashRecoveryPreservesData(t *testing.T) {
	// Seeded randomness (replay with WEAVER_TEST_SEED): the write order
	// interleaving with the crash is the interesting variable here.
	seed := workload.TestSeed(t)
	r := rand.New(rand.NewSource(seed))
	c := openTest(t, faultConfig())
	cl := c.Client()
	order := r.Perm(40)
	for _, i := range order {
		id := VertexID(fmt.Sprintf("v%d", i))
		if _, err := cl.RunTx(func(tx *Tx) error {
			tx.CreateVertex(id)
			tx.SetProperty(id, "n", fmt.Sprintf("%d", i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range r.Perm(39) {
		if _, err := cl.RunTx(func(tx *Tx) error {
			tx.CreateEdge(VertexID(fmt.Sprintf("v%d", i)), VertexID(fmt.Sprintf("v%d", i+1)))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Kill shard 0 and recover it deterministically.
	c.CrashShard(0)
	if err := c.RecoverNow(ShardAddr(0)); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() == 0 {
		t.Fatal("recovery must bump the epoch")
	}

	// All data must be readable again via node programs (the reborn shard
	// reloaded its partition from the backing store, §4.3).
	for i := 0; i < 40; i++ {
		id := VertexID(fmt.Sprintf("v%d", i))
		d, ok, err := cl.GetNode(id)
		if err != nil || !ok {
			t.Fatalf("vertex %s unreadable after recovery: ok=%v err=%v", id, ok, err)
		}
		if d.Props["n"] != fmt.Sprintf("%d", i) {
			t.Fatalf("vertex %s lost its property: %+v", id, d)
		}
	}
	// Traversal spanning both shards works.
	ids, _, err := cl.Traverse("v0", "", "", 0)
	if err != nil || len(ids) != 40 {
		t.Fatalf("post-recovery traversal: %d vertices, err=%v", len(ids), err)
	}
	// And new writes are accepted and visible.
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("post-recovery")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cl.GetNode("post-recovery"); !ok {
		t.Fatal("post-recovery write invisible")
	}
}

func TestGatekeeperCrashRecovery(t *testing.T) {
	c := openTest(t, faultConfig())
	cl0, _ := c.ClientAt(0)
	cl1, _ := c.ClientAt(1)
	if _, err := cl0.RunTx(func(tx *Tx) error {
		tx.CreateVertex("before")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tsBefore := cl0.Now()

	c.CrashGatekeeper(0)
	// The surviving gatekeeper keeps serving during the outage.
	if _, err := cl1.RunTx(func(tx *Tx) error {
		tx.CreateVertex("during")
		return nil
	}); err != nil {
		t.Fatalf("surviving gatekeeper failed: %v", err)
	}

	if err := c.RecoverNow(GatekeeperAddr(0)); err != nil {
		t.Fatal(err)
	}

	// The reborn gatekeeper serves again; its clock restarted in a higher
	// epoch, so new timestamps order after all old ones (§4.3).
	info, err := cl0.RunTx(func(tx *Tx) error {
		tx.CreateVertex("after")
		return nil
	})
	if err != nil {
		t.Fatalf("reborn gatekeeper failed: %v", err)
	}
	if info.TS.Epoch == 0 {
		t.Fatalf("new timestamps must be in the new epoch: %v", info.TS)
	}
	if !tsBefore.Before(info.TS) {
		t.Fatalf("monotonicity across failover broken: %v not before %v", tsBefore, info.TS)
	}
	// Everything committed before, during, and after is visible.
	for _, v := range []VertexID{"before", "during", "after"} {
		if _, ok, err := cl0.GetNode(v); err != nil || !ok {
			t.Fatalf("%s invisible after failover: ok=%v err=%v", v, ok, err)
		}
	}
}

func TestHeartbeatDetectorAutoRecovers(t *testing.T) {
	c := openTest(t, faultConfig())
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("x")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	c.CrashShard(1)
	// Wait for the detector to notice and recover (timeout 150ms).
	deadline := time.Now().Add(5 * time.Second)
	for c.Epoch() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("detector never recovered the crashed shard")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Reads across both shards work again.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, ok, err := cl.GetNode("x"); err == nil && ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reads never resumed after auto-recovery")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCrashedGatekeeperRejectsClients(t *testing.T) {
	cfg := testConfig(2, 1)
	c := openTest(t, cfg) // no manager: crash stays crashed
	cl0, _ := c.ClientAt(0)
	c.CrashGatekeeper(0)
	tx := cl0.Begin()
	tx.CreateVertex("v")
	if _, err := tx.Commit(); err == nil {
		t.Fatal("stopped gatekeeper must reject transactions")
	}
	if _, _, err := cl0.RunProgram("get_node", nil, "v"); err == nil {
		t.Fatal("stopped gatekeeper must reject programs")
	}
}

// A gatekeeper killed between its backing-store commit and the forward
// leaves a committed write-set no shard ever received. The epoch barrier
// that recovers the gatekeeper has every shard sweep the store for exactly
// that — in an embedded cluster as in a weaverd deployment. (It used to run
// over TCP only: an embedded shard had no store handle for the sweep, and
// the gatekeeper's restart callback never re-ran recovery.)
func TestEmbeddedBarrierSweepsUnforwardedCommit(t *testing.T) {
	cfg := faultConfig()
	cfg.HeartbeatTimeout = time.Hour // manager on, detector effectively off
	cfg.Indexes = []IndexSpec{{Key: "kind"}}
	c := openTest(t, cfg)

	// What gatekeeper 0's commit leaves in the store (tryCommit): the
	// record at the timestamp it minted, and — published before the mint —
	// the index marker for the value it sets.
	const orphan = VertexID("orphan")
	home := c.Directory().Lookup(orphan)
	rec := graph.NewVertexRecord(orphan, home)
	rec.Props["kind"] = "ghost"
	rec.LastTS = c.gkAt(0).Snapshot()
	tx := c.kv.Begin()
	tx.Put(graph.VertexKey(orphan), graph.EncodeRecord(rec))
	tx.Put(plan.MarkerKey("kind", "ghost", home), []byte{1})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// ... and the gatekeeper dies before forwarding.
	c.CrashGatekeeper(0)
	if err := c.RecoverNow(GatekeeperAddr(0)); err != nil {
		t.Fatal(err)
	}

	cl, _ := c.ClientAt(1)
	d, ok, err := cl.GetNode(orphan)
	if err != nil || !ok || d.Props["kind"] != "ghost" {
		t.Fatalf("committed-but-unforwarded vertex after the barrier: %+v ok=%v err=%v", d, ok, err)
	}
	ids, _, err := cl.Lookup("kind", "ghost")
	if err != nil || len(ids) != 1 || ids[0] != orphan {
		t.Fatalf("index lookup for the swept vertex: %v err=%v", ids, err)
	}
	if errs := c.shardAt(home).Stats().RecoverErrors; errs != 0 {
		t.Fatalf("barrier sweep failed %d times", errs)
	}
}
