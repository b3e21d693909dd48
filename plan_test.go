// Query-planner suite: marker-catalog shard pruning, predicate/limit
// pushdown, EXPLAIN, and the planner-equivalence property — planned
// execution must be byte-identical to a forced broadcast and to a
// brute-force scan at the same snapshot, for any graph, predicate
// conjunction, and migration history.
package weaver_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"weaver"
	"weaver/internal/workload"
)

// planConfig is indexConfig with a second indexed key so conjunction
// queries have two independent dimensions.
func planConfig(shards int) weaver.Config {
	cfg := indexConfig(shards)
	cfg.Indexes = []weaver.IndexSpec{{Key: "city"}, {Key: "kind"}}
	cfg.HistoryRetention = 5 * time.Second
	cfg.GCPeriod = 20 * time.Millisecond
	return cfg
}

// TestPlannerEquivalenceRandomized is the planner's soundness property
// test: random graphs, random predicate conjunctions (all five operators,
// range pairs with inclusive, strict, unbounded and contradictory bounds,
// random limits), and random migration batches — at every step the planned
// execution (marker-catalog pruning, pushdown, early truncation) must
// return exactly what a forced broadcast returns at the SAME snapshot, and
// both must equal a brute-force GetNode scan filtered by the test's own
// reading of the predicates; an inclusive range pair must also equal
// LookupRange. All of it both at the fresh timestamp the planned query
// minted and at a pinned historical timestamp. A background writer keeps
// commits racing the queries so the marker re-check path is exercised.
// Replay failures with WEAVER_TEST_SEED.
func TestPlannerEquivalenceRandomized(t *testing.T) {
	seed := workload.TestSeed(t)
	rng := rand.New(rand.NewSource(seed))
	const (
		nV     = 40
		nVals  = 5
		nKinds = 3
		rounds = 50
	)
	c, err := weaver.Open(planConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	vid := func(i int) weaver.VertexID { return weaver.VertexID(fmt.Sprintf("p%02d", i)) }
	city := func(k int) string { return fmt.Sprintf("c%d", k) }
	kind := func(k int) string { return fmt.Sprintf("k%d", k) }

	setup := c.Client()
	if _, err := setup.RunTx(func(tx *weaver.Tx) error {
		for i := 0; i < nV; i++ {
			tx.CreateVertex(vid(i))
			if rng.Intn(10) > 0 { // some vertices stay property-less
				tx.SetProperty(vid(i), "city", city(rng.Intn(nVals)))
			}
			if rng.Intn(10) > 2 {
				tx.SetProperty(vid(i), "kind", kind(rng.Intn(nKinds)))
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Racing writer: commits concurrent with every query below, so plans
	// race marker publications and the post-merge re-check earns its keep.
	stop := make(chan struct{})
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		wrng := rand.New(rand.NewSource(seed + 1))
		wcl := c.Client()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := vid(wrng.Intn(nV))
			wcl.RunTx(func(tx *weaver.Tx) error {
				tx.SetProperty(v, "city", city(wrng.Intn(nVals)))
				return nil
			})
			time.Sleep(200 * time.Microsecond)
		}
	}()
	defer wwg.Wait()
	defer close(stop)

	// randomWheres builds a conjunction over the two indexed keys: either
	// 1-2 free predicates with random operators, or a range pair on one key
	// whose bounds may be strict, unbounded (empty) or contradictory
	// (lo > hi). Values sometimes name nothing (empty-plan path). inclusive
	// reports a Ge/Le pair, the form LookupRange(key, lo, hi) must equal.
	ops := []byte{weaver.OpEq, weaver.OpGe, weaver.OpLe, weaver.OpGt, weaver.OpLt}
	randomValue := func() (key, val string) {
		if rng.Intn(2) == 0 {
			return "city", city(rng.Intn(nVals + 1)) // nVals = absent value
		}
		return "kind", kind(rng.Intn(nKinds + 1))
	}
	randomWheres := func() (ws []weaver.Where, inclusive bool) {
		if rng.Intn(2) == 0 {
			key, lo := randomValue()
			hi := lo[:1] + fmt.Sprint(rng.Intn(nVals+1))
			if rng.Intn(4) == 0 {
				lo = ""
			}
			if rng.Intn(4) == 0 {
				hi = ""
			}
			loOp, hiOp := weaver.OpGe, weaver.OpLe
			if rng.Intn(3) == 0 {
				loOp = weaver.OpGt
			}
			if rng.Intn(3) == 0 {
				hiOp = weaver.OpLt
			}
			return []weaver.Where{{Key: key, Op: loOp, Value: lo}, {Key: key, Op: hiOp, Value: hi}},
				loOp == weaver.OpGe && hiOp == weaver.OpLe
		}
		for n := 1 + rng.Intn(2); n > 0; n-- {
			key, val := randomValue()
			ws = append(ws, weaver.Where{Key: key, Op: ops[rng.Intn(len(ops))], Value: val})
		}
		return ws, false
	}
	// holds is the test's own reading of one predicate against a vertex's
	// property (an empty inequality bound is the unbounded side).
	holds := func(w weaver.Where, val string, has bool) bool {
		switch {
		case !has:
			return false
		case w.Op == weaver.OpEq:
			return val == w.Value
		case w.Value == "":
			return true
		case w.Op == weaver.OpGe:
			return val >= w.Value
		case w.Op == weaver.OpLe:
			return val <= w.Value
		case w.Op == weaver.OpGt:
			return val > w.Value
		default:
			return val < w.Value
		}
	}
	// verify checks a planned result at rc's timestamp against the forced
	// broadcast, the brute-force scan and (for inclusive pairs) LookupRange.
	verify := func(rc *weaver.ReadClient, planned []weaver.VertexID, wheres []weaver.Where, inclusive bool, limit int) error {
		oracle, err := rc.BroadcastWhere(limit, wheres...)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(sortedIDs(planned), sortedIDs(oracle)) {
			return fmt.Errorf("planned %v != broadcast %v", planned, oracle)
		}
		var scan []weaver.VertexID // vid order is ascending ID order
		for i := 0; i < nV; i++ {
			d, alive, err := rc.GetNode(vid(i))
			if err != nil {
				return err
			}
			if !alive {
				continue
			}
			match := true
			for _, w := range wheres {
				val, has := d.Props[w.Key]
				match = match && holds(w, val, has)
			}
			if match {
				scan = append(scan, vid(i))
			}
		}
		if inclusive {
			ranged, err := rc.LookupRange(wheres[0].Key, wheres[0].Value, wheres[1].Value)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(sortedIDs(ranged), sortedIDs(scan)) {
				return fmt.Errorf("LookupRange %v != scan %v", ranged, scan)
			}
		}
		if limit > 0 && len(scan) > limit {
			scan = scan[:limit]
		}
		if !reflect.DeepEqual(sortedIDs(planned), sortedIDs(scan)) {
			return fmt.Errorf("planned %v != scan %v", planned, scan)
		}
		return nil
	}

	cl := c.Client()
	checked, staleSkips := 0, 0
	for round := 0; round < rounds; round++ {
		// Random churn: one mutation batch, periodically a migration.
		v := vid(rng.Intn(nV))
		if _, err := cl.RunTx(func(tx *weaver.Tx) error {
			_, alive, err := tx.GetVertex(v)
			if err != nil {
				return err
			}
			switch {
			case !alive:
				tx.CreateVertex(v)
				tx.SetProperty(v, "city", city(rng.Intn(nVals)))
			case rng.Intn(5) == 0:
				tx.DeleteVertex(v)
			case rng.Intn(3) == 0:
				tx.DelProperty(v, "city")
			default:
				tx.SetProperty(v, "city", city(rng.Intn(nVals)))
				tx.SetProperty(v, "kind", kind(rng.Intn(nKinds)))
			}
			return nil
		}); err != nil {
			t.Fatalf("round %d churn: %v", round, err)
		}
		if round%7 == 3 {
			seen := map[weaver.VertexID]bool{}
			var moves []weaver.Move
			for len(moves) < 5 {
				mv := vid(rng.Intn(nV))
				if !seen[mv] {
					seen[mv] = true
					moves = append(moves, weaver.Move{Vertex: mv, Target: rng.Intn(4)})
				}
			}
			if _, err := c.MigrateBatch(moves); err != nil {
				t.Fatalf("round %d migrate: %v", round, err)
			}
		}

		wheres, inclusive := randomWheres()
		limit := rng.Intn(4) // 0 = unlimited

		// Fresh: planned mints the snapshot, the references re-read at that
		// exact timestamp.
		planned, ts, err := cl.LookupWhere(limit, wheres...)
		if err != nil {
			t.Fatalf("round %d planned %v: %v", round, wheres, err)
		}
		if err := verify(cl.At(ts), planned, wheres, inclusive, limit); err != nil {
			if errors.Is(err, weaver.ErrStaleSnapshot) {
				staleSkips++
				continue
			}
			t.Fatalf("round %d: %v limit %d at %v: %v (seed %d)", round, wheres, limit, ts, err, seed)
		}
		checked++

		// Pinned historical: everything at one pinned timestamp.
		snap, err := c.SnapshotTS()
		if err != nil {
			t.Fatalf("round %d pin: %v", round, err)
		}
		rc := cl.At(snap.TS())
		hPlanned, err := rc.LookupWhere(limit, wheres...)
		if err == nil {
			err = verify(rc, hPlanned, wheres, inclusive, limit)
		}
		snap.Close()
		if err != nil {
			t.Fatalf("round %d pinned: %v limit %d: %v (seed %d)", round, wheres, limit, err, seed)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no equivalence checks ran")
	}
	t.Logf("planner equivalence: %d checks, %d stale skips, seed %d", checked, staleSkips, seed)
}

// TestExplainReportsPruning is the EXPLAIN acceptance test: a selective
// equality query must contact strictly fewer shards than the cluster
// holds, report which, and count the actual rows.
func TestExplainReportsPruning(t *testing.T) {
	const shards = 4
	c, err := weaver.Open(planConfig(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.Client()

	evid := func(i int) weaver.VertexID { return weaver.VertexID(fmt.Sprintf("e%02d", i)) }
	if _, err := cl.RunTx(func(tx *weaver.Tx) error {
		for i := 0; i < 20; i++ {
			tx.CreateVertex(evid(i))
			tx.SetProperty(evid(i), "city", "common")
			tx.SetProperty(evid(i), "kind", fmt.Sprintf("k%d", i%2))
		}
		tx.SetProperty(evid(5), "city", "rare")
		tx.SetProperty(evid(12), "city", "rare")
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Selective value on two vertices: at most two owning shards, so at
	// least two of four are pruned.
	ids, ex, err := cl.Explain("city", "rare")
	if err != nil {
		t.Fatal(err)
	}
	if want := []weaver.VertexID{evid(5), evid(12)}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("Explain result %v, want %v", ids, want)
	}
	if ex.Broadcast {
		t.Fatalf("selective equality broadcast: %+v", ex)
	}
	if len(ex.Shards) == 0 || len(ex.Shards) > 2 {
		t.Fatalf("rare value should contact <=2 shards, contacted %v", ex.Shards)
	}
	if ex.Pruned < shards-2 || ex.Pruned+len(ex.Shards) != shards {
		t.Fatalf("pruned accounting wrong: %+v", ex)
	}
	if ex.ActualRows != 2 {
		t.Fatalf("ActualRows = %d, want 2", ex.ActualRows)
	}
	if len(ex.PerShard) != len(ex.Shards) {
		t.Fatalf("PerShard rows %d != contacted %d", len(ex.PerShard), len(ex.Shards))
	}

	// A value the catalog has never seen plans zero shards — provably
	// empty without contacting anyone.
	ids, ex, err = cl.Explain("city", "absent")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 || len(ex.Shards) != 0 || ex.Pruned != shards {
		t.Fatalf("absent value: ids=%v explain=%+v", ids, ex)
	}

	// Conjunction with limit: pushdown, and the limit truncates to the
	// first match by vertex ID.
	ids, ex, err = cl.ExplainWhere(1,
		weaver.Where{Key: "city", Op: weaver.OpEq, Value: "rare"},
		weaver.Where{Key: "kind", Op: weaver.OpGe, Value: ""})
	if err != nil {
		t.Fatal(err)
	}
	if want := []weaver.VertexID{evid(5)}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("limited conjunction = %v, want %v", ids, want)
	}
	if ex.Broadcast || len(ex.Shards) > 2 || ex.Limit != 1 {
		t.Fatalf("conjunction explain: %+v", ex)
	}
	if ex.ActualRows != 2 {
		t.Fatalf("ActualRows = %d, want pre-limit 2", ex.ActualRows)
	}

	// An inequality-only conjunction has no equality to prune on: broadcast
	// with the reason recorded.
	_, ex, err = cl.ExplainWhere(0, weaver.Where{Key: "city", Op: weaver.OpGe, Value: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Broadcast || ex.FallbackReason != "no equality predicate" || len(ex.Shards) != shards {
		t.Fatalf("inequality-only explain: %+v", ex)
	}

	_, ex, err = cl.Explain("city", "common")
	if err != nil {
		t.Fatal(err)
	}
	if ex.ActualRows != 18 { // 20 minus evid(5) and evid(12), which flipped to rare
		t.Fatalf("common ActualRows = %d, want 18", ex.ActualRows)
	}

	// Unindexed keys keep their typed error through the planned path.
	if _, _, err := cl.LookupWhere(0, weaver.Where{Key: "nope", Op: weaver.OpEq, Value: "x"}); !errors.Is(err, weaver.ErrNoIndex) {
		t.Fatalf("unindexed key error = %v, want ErrNoIndex", err)
	}
}
