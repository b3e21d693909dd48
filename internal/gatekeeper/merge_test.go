package gatekeeper

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"weaver/internal/graph"
	"weaver/internal/plan"
	"weaver/internal/workload"
)

// mergeRuns against sort, deduplicate and truncate over random shard
// replies: sorted runs of random length in random reply order, where a
// vertex often appears in two runs (the migration-fence case: a posting on
// both the source and the target shard), under random limits.
func TestMergeRunsMatchesSortDedup(t *testing.T) {
	seed := workload.TestSeed(t)
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 500; round++ {
		var verts []graph.VertexID
		var contacts []plan.ShardContact
		var shared graph.VertexID
		for s := 0; s < 1+rng.Intn(6); s++ {
			var run []graph.VertexID
			for i := 0; i < rng.Intn(12); i++ {
				run = append(run, graph.VertexID(fmt.Sprintf("v%03d", rng.Intn(60))))
			}
			if shared != "" && rng.Intn(2) == 0 {
				run = append(run, shared) // the same vertex in a second run
			}
			if len(run) > 0 {
				shared = run[rng.Intn(len(run))]
			}
			slices.Sort(run)
			run = slices.Compact(run)
			verts = append(verts, run...)
			contacts = append(contacts, plan.ShardContact{Shard: s, Rows: len(run)})
		}
		limit := 0
		if rng.Intn(2) == 0 {
			limit = 1 + rng.Intn(20)
		}
		in := slices.Clone(verts) // mergeRuns merges in place
		want := slices.Compact(slices.Sorted(slices.Values(verts)))
		if limit > 0 && len(want) > limit {
			want = want[:limit]
		}
		if got := mergeRuns(verts, contacts, limit); !slices.Equal(got, want) {
			t.Fatalf("round %d (seed %d): runs %v %v, limit %d: merged %v, want %v", round, seed, contacts, in, limit, got, want)
		}
	}
}
