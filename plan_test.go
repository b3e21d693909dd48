// Query-planner suite: marker-catalog shard pruning, predicate/limit
// pushdown and EXPLAIN. TestStress/planner checks that planned execution
// equals a forced broadcast and a brute-force scan at the same snapshot.
package weaver_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"weaver"
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
	ids, ex, err := cl.ExplainWhere(0, weaver.Where{Key: "city", Op: weaver.OpEq, Value: "rare"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []weaver.VertexID{evid(5), evid(12)}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("ExplainWhere result %v, want %v", ids, want)
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
	ids, ex, err = cl.ExplainWhere(0, weaver.Where{Key: "city", Op: weaver.OpEq, Value: "absent"})
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

	_, ex, err = cl.ExplainWhere(0, weaver.Where{Key: "city", Op: weaver.OpEq, Value: "common"})
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
