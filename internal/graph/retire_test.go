package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/workload"
)

// twoGKClock issues timestamps from two gatekeepers that learn of each
// other's progress only now and then, so pairs of stamps are often
// concurrent, as in a real cluster.
type twoGKClock struct {
	rng *rand.Rand
	gk  [2][]uint64
}

func (c *twoGKClock) tick() core.Timestamp {
	g := c.rng.Intn(2)
	if c.rng.Intn(3) == 0 {
		for i, x := range c.gk[1-g] {
			c.gk[g][i] = max(c.gk[g][i], x)
		}
	}
	c.gk[g][g]++
	return core.Timestamp{Owner: g, Clock: slices.Clone(c.gk[g])}
}

// watermark returns a collection point at or below what both gatekeepers
// issued: often the pointwise min of their clocks (a shard's combined
// report), otherwise a random vector below the pointwise max, with an
// arbitrary owner, concurrent with many stamps.
func (c *twoGKClock) watermark() core.Timestamp {
	if c.rng.Intn(2) == 0 {
		return core.PointwiseMin(
			core.Timestamp{Owner: 0, Clock: slices.Clone(c.gk[0])},
			core.Timestamp{Owner: 1, Clock: slices.Clone(c.gk[1])})
	}
	wm := core.Timestamp{Owner: c.rng.Intn(2), Clock: make([]uint64, 2)}
	for i := range wm.Clock {
		wm.Clock[i] = uint64(c.rng.Int63n(int64(max(c.gk[0][i], c.gk[1][i]) + 2)))
	}
	return wm
}

// TestCollectBeforeMatchesFullSweep drives two worlds of two stores each
// through the same random history — every op kind, tombstone and marked
// installs, moves between the stores, eviction — and collects one world
// through the retire list and the other by the whole-store sweep, at
// random watermarks. After every collection the worlds must hold the same
// versions, and the two collections must have removed the same number and
// dropped the same property versions.
func TestCollectBeforeMatchesFullSweep(t *testing.T) {
	seed := workload.TestSeed(t)
	for _, kind := range []string{"store", "projection"} {
		t.Run(kind, func(t *testing.T) {
			for round := int64(0); round < 20; round++ {
				matchFullSweep(t, kind, rand.New(rand.NewSource(seed+round)))
			}
		})
	}
}

func matchFullSweep(t *testing.T, kind string, rng *rand.Rand) {
	t.Helper()
	newStore := graph.NewStore
	if kind == "projection" {
		newStore = func() *graph.Store { return graph.NewProjection([]string{"k0"}) }
	}
	var list, full [2]*graph.Store // collected by retire list / by full sweep
	for i := range list {
		list[i], full[i] = newStore(), newStore()
	}
	clk := &twoGKClock{rng: rng, gk: [2][]uint64{make([]uint64, 2), make([]uint64, 2)}}
	home := map[graph.VertexID]int{}
	vertex := func() graph.VertexID { return graph.VertexID(fmt.Sprintf("v%d", rng.Intn(6))) }
	edge := func() graph.EdgeID { return graph.EdgeID(fmt.Sprintf("e%d", rng.Intn(3))) }
	key := func() string { return fmt.Sprintf("k%d", rng.Intn(2)) }
	both := func(i int, fn func(*graph.Store)) { fn(list[i]); fn(full[i]) }
	kinds := []graph.OpKind{graph.OpCreateVertex, graph.OpDeleteVertex, graph.OpCreateEdge, graph.OpDeleteEdge,
		graph.OpSetVertexProp, graph.OpDelVertexProp, graph.OpSetEdgeProp, graph.OpDelEdgeProp}

	for step := 0; step < 400; step++ {
		v := vertex()
		h := home[v]
		switch r := rng.Intn(100); {
		case r < 60: // one op; most fail on a random history, identically in both worlds
			op := graph.Op{Kind: kinds[rng.Intn(len(kinds))], Vertex: v, Edge: edge(), To: vertex(),
				Key: key(), Value: fmt.Sprint(rng.Intn(4))}
			ts := clk.tick()
			var errs [2]error
			errs[0], errs[1] = list[h].Apply(op, ts), full[h].Apply(op, ts)
			if (errs[0] == nil) != (errs[1] == nil) {
				t.Fatalf("step %d: %v applied differently: %v / %v", step, op, errs[0], errs[1])
			}
		case r < 66: // a record read back, or bulk ingest: a tombstone or a live state
			ts, marked, deleted := clk.tick(), rng.Intn(2) == 0, rng.Intn(2) == 0
			k, e, to := key(), edge(), vertex()
			both(h, func(s *graph.Store) {
				rec := graph.NewVertexRecord(v, h)
				rec.LastTS, rec.Deleted = ts, deleted
				rec.Props[k] = "rec"
				rec.Edges[e] = graph.EdgeRecord{To: to, Props: map[string]string{"w": "1"}}
				s.Install([]*graph.VertexRecord{rec}, marked)
			})
		case r < 80: // migration: the chain moves to the other store
			for _, w := range [2]*[2]*graph.Store{&list, &full} {
				if hist, ok := w[h].Detach(v); ok {
					w[1-h].Attach(hist)
				}
			}
			home[v] = 1 - h
		case r < 83: // paging out; the reference drops the same chains
			i := rng.Intn(2)
			for _, id := range list[i].EvictBefore(clk.watermark(), 1<<30) {
				full[i].Detach(id)
			}
		default:
			wm := clk.watermark()
			for i := range list {
				var got, want []string
				drop := func(out *[]string) func(graph.VertexID, *graph.Property) {
					return func(vid graph.VertexID, p *graph.Property) {
						*out = append(*out, fmt.Sprintf("%s %s=%s [%v %v)", vid, p.Key, p.Value, p.Created, p.Deleted))
					}
				}
				n := list[i].CollectBeforeFunc(wm, drop(&got))
				m := graph.FullSweep(full[i], wm, drop(&want))
				sort.Strings(got)
				sort.Strings(want)
				if n != m || !slices.Equal(got, want) {
					t.Fatalf("step %d store %d at %v: removed %d, dropped %v; full sweep removed %d, dropped %v",
						step, i, wm, n, got, m, want)
				}
				if a, b := graph.Resident(list[i]), graph.Resident(full[i]); !slices.Equal(a, b) {
					t.Fatalf("step %d store %d at %v: resident versions differ:\nretire list %v\nfull sweep  %v",
						step, i, wm, a, b)
				}
			}
		}
	}
}

// TestCollectBeforeVisitsOnlyRetiredChains: a pass over a large store in
// which three vertices ended a version visits those three chains only.
func TestCollectBeforeVisitsOnlyRetiredChains(t *testing.T) {
	const n = 50_000
	ts := func(c uint64) core.Timestamp { return core.Timestamp{Clock: []uint64{c}} }
	s := graph.NewStore()
	recs := make([]*graph.VertexRecord, n)
	for i := range recs {
		recs[i] = graph.NewVertexRecord(graph.VertexID(fmt.Sprintf("v%d", i)), 0)
		recs[i].Props["name"] = "a"
		recs[i].LastTS = ts(1)
	}
	s.LoadAll(recs)
	for _, v := range []graph.VertexID{"v7", "v4242", "v49999"} {
		if err := s.Apply(graph.Op{Kind: graph.OpSetVertexProp, Vertex: v, Key: "name", Value: "b"}, ts(2)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.CollectBefore(ts(3)); got != 3 {
		t.Fatalf("removed %d versions, want 3", got)
	}
	if got := s.Swept(); got != 3 {
		t.Fatalf("swept %d chains, want 3", got)
	}
	if got := s.Retired(); got != 0 {
		t.Fatalf("%d retirements still pending, want 0", got)
	}
}

// TestEvictBeforeDeterministic builds pairs of stores from the same random
// ops — vertices with several out-edges and properties, stamped by two
// gatekeepers that are often concurrent — and evicts both stores of a pair
// at one watermark. They must evict the same vertices, and no evicted
// vertex may hold a write that is not strictly below the watermark (one
// concurrent with it included).
func TestEvictBeforeDeterministic(t *testing.T) {
	seed := workload.TestSeed(t)
	for round := int64(0); round < 20; round++ {
		rng := rand.New(rand.NewSource(seed + round))
		clk := &twoGKClock{rng: rng, gk: [2][]uint64{make([]uint64, 2), make([]uint64, 2)}}
		const n = 12
		vertex := func() graph.VertexID { return graph.VertexID(fmt.Sprintf("v%d", rng.Intn(n))) }
		var ops []graph.Op
		for v := 0; v < n; v++ {
			ops = append(ops, graph.Op{Kind: graph.OpCreateVertex, Vertex: graph.VertexID(fmt.Sprintf("v%d", v))})
		}
		for step := 0; step < 10*n; step++ {
			if rng.Intn(4) == 0 {
				ops = append(ops, graph.Op{Kind: graph.OpSetVertexProp, Vertex: vertex(), Key: "k", Value: fmt.Sprint(step)})
				continue
			}
			ops = append(ops, graph.Op{Kind: graph.OpCreateEdge, Vertex: vertex(),
				Edge: graph.EdgeID(fmt.Sprintf("e%d", step)), To: vertex()})
		}
		stamps := make([]core.Timestamp, len(ops))
		for i := range stamps {
			stamps[i] = clk.tick()
		}
		for try := 0; try < 5; try++ {
			wm := clk.watermark()
			var evicted [2][]graph.VertexID
			for i := range evicted {
				s := graph.NewStore()
				for j, op := range ops {
					if err := s.Apply(op, stamps[j]); err != nil {
						t.Fatalf("round %d: %v: %v", round, op, err)
					}
				}
				evicted[i] = s.EvictBefore(wm, 1<<30)
				slices.Sort(evicted[i])
			}
			if !slices.Equal(evicted[0], evicted[1]) {
				t.Fatalf("round %d at %v: identical stores evicted %v and %v", round, wm, evicted[0], evicted[1])
			}
			for _, v := range evicted[0] {
				for j, op := range ops {
					if op.Vertex == v && !stamps[j].PointwiseLT(wm) {
						t.Fatalf("round %d: evicted %s, which holds a write at %v not below the watermark %v (concurrent: %v)",
							round, v, stamps[j], wm, !stamps[j].PointwiseLE(wm) && !wm.PointwiseLE(stamps[j]))
					}
				}
			}
		}
	}
}
