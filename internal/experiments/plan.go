package experiments

// Query-planner experiment: selective multi-predicate lookups on a bulk-
// loaded propertied graph, answered two ways — through the planner (marker
// pruning + predicate/limit pushdown) and through the same pushdown path
// with pruning disabled (forced broadcast). Both run under concurrent load
// so the broadcast strategy pays for the shards it needlessly occupies. An
// Explain pass reports how many shards the planner actually touched versus
// the cluster size.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"weaver"
	"weaver/internal/bench"
)

// PlanResult reports the experiment.
type PlanResult struct {
	Vertices, Shards int
	RareKinds        int // distinct selective kind values
	RareMatches      int // vertices per rare kind

	PlannedP50, PlannedP99     time.Duration
	BroadcastP50, BroadcastP99 time.Duration

	// ShardsContactedMean is the mean planned fan-out measured by Explain;
	// broadcast always contacts Shards.
	ShardsContactedMean float64
	// ActualRowsMean is the mean pre-limit match count Explain reports.
	ActualRowsMean float64

	// SpeedupVsBroadcast is broadcast p50 over planned p50.
	SpeedupVsBroadcast float64
}

// Plan runs the experiment at the configured scale.
func Plan(o Options) (*PlanResult, error) {
	const (
		shards    = 8
		cities    = 32
		rareKinds = 64
		rareN     = 3 // vertices per rare kind
		limit     = 2
	)
	r := &PlanResult{Shards: shards, RareKinds: rareKinds, RareMatches: rareN}
	r.Vertices = o.RandV * 20
	if r.Vertices < 4096 {
		r.Vertices = 4096
	}

	// Tight clock periods: the readiness wait (τ-bounded) is a fixed floor
	// paid identically by every strategy; shrinking it keeps the comparison
	// about per-query shard occupancy rather than clock cadence.
	c, err := weaver.Open(weaver.Config{
		Gatekeepers:    o.Gatekeepers,
		Shards:         shards,
		AnnouncePeriod: 200 * time.Microsecond,
		NopPeriod:      100 * time.Microsecond,
		ProgTimeout:    60 * time.Second,
		ShardWorkers:   2,
		WireFrames:     true,
		Directory:      weaver.NewMappedDirectory(shards),
		Indexes:        []weaver.IndexSpec{{Key: "city"}, {Key: "kind"}},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	city := func(i int) string { return fmt.Sprintf("c%02d", i%cities) }
	kind := func(i int) string {
		if i < rareKinds*rareN {
			return fmt.Sprintf("r%03d", i/rareN)
		}
		return "common"
	}
	vs := make([]weaver.BulkVertex, r.Vertices)
	for i := range vs {
		vs[i] = weaver.BulkVertex{
			ID:    weaver.VertexID(fmt.Sprintf("u%06d", i)),
			Props: map[string]string{"city": city(i), "kind": kind(i)},
		}
	}
	// Each rare group is internally connected (a triangle), so the LDG
	// streaming partitioner co-places its members — the locality a
	// well-partitioned graph gives rare values, which the planner turns
	// into single-shard plans.
	var es []weaver.BulkEdge
	for g := 0; g < rareKinds; g++ {
		for j := 0; j < rareN; j++ {
			es = append(es, weaver.BulkEdge{From: vs[g*rareN+j].ID, To: vs[g*rareN+(j+1)%rareN].ID})
		}
	}
	if _, err := c.BulkLoadGraph(vs, es); err != nil {
		return nil, err
	}

	// One query per rare kind: kind == r AND city >= lo, limit 2, where lo
	// is the city of the group's first vertex. Ground truth is computed
	// from the load set; every strategy must return exactly it.
	type query struct {
		wheres []weaver.Where
		want   []weaver.VertexID
		kindV  string
		cityLo string
	}
	queries := make([]query, rareKinds)
	for g := 0; g < rareKinds; g++ {
		lo := city(g * rareN)
		var want []weaver.VertexID
		for j := 0; j < rareN; j++ {
			i := g*rareN + j
			if city(i) >= lo {
				want = append(want, vs[i].ID)
			}
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if len(want) > limit {
			want = want[:limit]
		}
		queries[g] = query{
			wheres: []weaver.Where{
				{Key: "kind", Op: weaver.OpEq, Value: fmt.Sprintf("r%03d", g)},
				{Key: "city", Op: weaver.OpGe, Value: lo},
			},
			want:   want,
			kindV:  fmt.Sprintf("r%03d", g),
			cityLo: lo,
		}
	}
	sameIDs := func(got, want []weaver.VertexID) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	// The two strategies under comparison.
	strategies := []struct {
		name string
		lat  *bench.Latencies
		run  func(cl *weaver.Client, q query) ([]weaver.VertexID, error)
	}{
		{"planned", &bench.Latencies{}, func(cl *weaver.Client, q query) ([]weaver.VertexID, error) {
			ids, _, err := cl.LookupWhere(limit, q.wheres...)
			return ids, err
		}},
		{"broadcast", &bench.Latencies{}, func(cl *weaver.Client, q query) ([]weaver.VertexID, error) {
			ids, _, err := cl.BroadcastWhere(limit, q.wheres...)
			return ids, err
		}},
	}

	// Warmup (unmeasured): touch every strategy once so page-ins and marker
	// caches settle before measurement begins.
	{
		wcl := c.Client()
		for g := 0; g < rareKinds; g++ {
			for _, st := range strategies {
				if _, err := st.run(wcl, queries[g]); err != nil {
					return nil, fmt.Errorf("warmup %s: %w", st.name, err)
				}
			}
		}
	}

	// Background write churn for the whole measurement: a live cluster is
	// never idle, and shard lag under writes is what a broadcast query
	// actually waits on — its read timestamp is answerable only once every
	// contacted shard catches up, so broadcast pays the maximum lag over all
	// 8 shards where the planner pays it over its 3. Writers touch an
	// unindexed property so the query ground truth is untouched.
	stopW := make(chan struct{})
	var wWG sync.WaitGroup
	werr := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wWG.Add(1)
		go func(w int) {
			defer wWG.Done()
			wcl := c.Client()
			wrng := rand.New(rand.NewSource(o.Seed + 1000 + int64(w)))
			for {
				select {
				case <-stopW:
					return
				default:
				}
				v := vs[wrng.Intn(len(vs))].ID
				if _, err := wcl.RunTx(func(tx *weaver.Tx) error {
					tx.SetProperty(v, "note", fmt.Sprintf("n%d", wrng.Intn(1000)))
					return nil
				}); err != nil {
					werr <- err
					return
				}
				time.Sleep(2 * time.Millisecond) // churn, not starvation
			}
		}(w)
	}
	stopWriters := func() error {
		close(stopW)
		wWG.Wait()
		close(werr)
		return <-werr
	}

	// Closed-loop measurement, one strategy at a time so the cluster carries
	// that strategy's full fan-out load (the planner's win IS the shard
	// occupancy it avoids — a mixed load would let broadcast queries ride
	// the planned queries' slack). Phases are short and cycle round-robin
	// several times, with the starting strategy rotated per round, so every
	// strategy samples the same span of system conditions.
	const rounds = 5
	total := o.Queries * 8
	if total < 192 {
		total = 192
	}
	perWorker := total / (rounds * o.Clients)
	if perWorker < 1 {
		perWorker = 1
	}
	for r := 0; r < rounds; r++ {
		for j := 0; j < len(strategies); j++ {
			st := strategies[(r+j)%len(strategies)]
			var wg sync.WaitGroup
			errs := make(chan error, o.Clients)
			for w := 0; w < o.Clients; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					cl := c.Client()
					rng := rand.New(rand.NewSource(o.Seed + int64(r*o.Clients+w)))
					for i := 0; i < perWorker; i++ {
						q := queries[rng.Intn(len(queries))]
						t0 := time.Now()
						got, err := st.run(cl, q)
						if err != nil {
							errs <- fmt.Errorf("%s %s/%s: %w", st.name, q.kindV, q.cityLo, err)
							return
						}
						st.lat.Add(time.Since(t0))
						if !sameIDs(got, q.want) {
							errs <- fmt.Errorf("%s %s/%s: got %v, want %v", st.name, q.kindV, q.cityLo, got, q.want)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				stopWriters()
				return nil, err
			}
		}
	}
	if err := stopWriters(); err != nil {
		return nil, fmt.Errorf("plan experiment writer: %w", err)
	}
	planned, broadcast := strategies[0].lat, strategies[1].lat

	// Explain pass: measure the planner's fan-out.
	cl := c.Client()
	rng := rand.New(rand.NewSource(o.Seed))
	explains := 16
	var contacted, actual float64
	for i := 0; i < explains; i++ {
		q := queries[rng.Intn(len(queries))]
		ids, ex, err := cl.ExplainWhere(limit, q.wheres...)
		if err != nil {
			return nil, fmt.Errorf("explain %s: %w", q.kindV, err)
		}
		if !sameIDs(ids, q.want) {
			return nil, fmt.Errorf("explain %s: got %v, want %v", q.kindV, ids, q.want)
		}
		if ex.Broadcast {
			return nil, fmt.Errorf("explain %s: planner fell back to broadcast (%s)", q.kindV, ex.FallbackReason)
		}
		if len(ex.Shards) >= shards {
			return nil, fmt.Errorf("explain %s: no pruning (%d of %d shards)", q.kindV, len(ex.Shards), shards)
		}
		contacted += float64(len(ex.Shards))
		actual += float64(ex.ActualRows)
	}
	r.ShardsContactedMean = contacted / float64(explains)
	r.ActualRowsMean = actual / float64(explains)

	r.PlannedP50, r.PlannedP99 = planned.Percentile(50), planned.Percentile(99)
	r.BroadcastP50, r.BroadcastP99 = broadcast.Percentile(50), broadcast.Percentile(99)
	if r.PlannedP50 > 0 {
		r.SpeedupVsBroadcast = float64(r.BroadcastP50) / float64(r.PlannedP50)
	}
	return r, nil
}

// String renders the paper-style table.
func (r *PlanResult) String() string {
	t := bench.NewTable("strategy", "p50 µs", "p99 µs")
	row := func(name string, p50, p99 time.Duration) {
		t.Row(name, float64(p50.Microseconds()), float64(p99.Microseconds()))
	}
	row("planned (prune+pushdown)", r.PlannedP50, r.PlannedP99)
	row("broadcast pushdown", r.BroadcastP50, r.BroadcastP99)
	return fmt.Sprintf(
		"Query planning: %d vertices, %d shards, %d rare kinds × %d matches\n%s"+
			"planner contacted %.1f of %d shards (%.1f rows matched); "+
			"p50 speedup %.1fx vs broadcast",
		r.Vertices, r.Shards, r.RareKinds, r.RareMatches, t.String(),
		r.ShardsContactedMean, r.Shards, r.ActualRowsMean, r.SpeedupVsBroadcast)
}
