package graph_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/workload"
)

// sameView reports how got, a reused view, differs from want, a fresh
// View.Vertex: "" when they hold the same vertex. Edge order follows the
// edge map, so edges compare as sets; a nil Props or Edges must stay nil.
func sameView(got, want *graph.VertexView) string {
	if got.ID != want.ID {
		return fmt.Sprintf("ID %q, want %q", got.ID, want.ID)
	}
	if (got.Props == nil) != (want.Props == nil) || !maps.Equal(got.Props, want.Props) {
		return fmt.Sprintf("props %v (nil=%v), want %v (nil=%v)", got.Props, got.Props == nil, want.Props, want.Props == nil)
	}
	edges := func(vv *graph.VertexView) string {
		var out []string
		for _, e := range vv.Edges {
			props := "nil"
			if e.Props != nil {
				props = fmt.Sprint(e.Props)
			}
			out = append(out, fmt.Sprintf("%s->%s %s", e.ID, e.To, props))
		}
		slices.Sort(out)
		return strings.Join(out, "; ")
	}
	if (got.Edges == nil) != (want.Edges == nil) {
		return fmt.Sprintf("edges nil=%v, want nil=%v", got.Edges == nil, want.Edges == nil)
	}
	if g, w := edges(got), edges(want); g != w {
		return fmt.Sprintf("edges [%s], want [%s]", g, w)
	}
	return ""
}

// TestVertexIntoMatchesVertex fills one reused VertexView across a random
// sequence of vertices and read stamps over random histories — degrees,
// vertex and edge properties, deletions, often concurrent stamps from two
// gatekeepers — and compares every fill with a fresh View.Vertex: nothing
// of an earlier fill (a props map, a longer edge list, an edge's props)
// may show through.
func TestVertexIntoMatchesVertex(t *testing.T) {
	seed := workload.TestSeed(t)
	for round := int64(0); round < 20; round++ {
		rng := rand.New(rand.NewSource(seed + round))
		clk := &twoGKClock{rng: rng, gk: [2][]uint64{make([]uint64, 2), make([]uint64, 2)}}
		s := graph.NewStore()
		vertex := func() graph.VertexID { return graph.VertexID(fmt.Sprintf("v%d", rng.Intn(6))) }
		kinds := []graph.OpKind{graph.OpCreateVertex, graph.OpDeleteVertex, graph.OpCreateEdge, graph.OpCreateEdge,
			graph.OpCreateEdge, graph.OpDeleteEdge, graph.OpSetVertexProp, graph.OpDelVertexProp,
			graph.OpSetEdgeProp, graph.OpDelEdgeProp}
		var stamps []core.Timestamp
		for step := 0; step < 300; step++ {
			op := graph.Op{Kind: kinds[rng.Intn(len(kinds))], Vertex: vertex(),
				Edge: graph.EdgeID(fmt.Sprintf("e%d", rng.Intn(12))), To: vertex(),
				Key: fmt.Sprintf("k%d", rng.Intn(3)), Value: fmt.Sprint(step)}
			ts := clk.tick()
			if s.Apply(op, ts) == nil { // most ops fail on a random history
				stamps = append(stamps, ts)
			}
		}
		var vv graph.VertexView
		for fill := 0; fill < 200; fill++ {
			at := clk.watermark()
			if len(stamps) > 0 && rng.Intn(2) == 0 {
				at = stamps[rng.Intn(len(stamps))]
			}
			view := s.At(func(w core.Timestamp) bool { return w.Compare(at) == core.Before })
			id := vertex()
			want, ok := view.Vertex(id)
			if got := view.VertexInto(id, &vv); got != ok {
				t.Fatalf("round %d fill %d: VertexInto(%s) = %v, Vertex says %v", round, fill, id, got, ok)
			}
			if !ok {
				continue
			}
			if diff := sameView(&vv, want); diff != "" {
				t.Fatalf("round %d fill %d: VertexInto(%s) at %v: %s", round, fill, id, at, diff)
			}
		}
	}
}

// A reused view after a vertex with properties and eight edges, each with a
// property, then a vertex with neither: the second fill carries nothing of
// the first, and a third fill of the first vertex is whole again.
func TestVertexIntoAfterLargerVertex(t *testing.T) {
	s := graph.NewStore()
	ts := core.Timestamp{Clock: []uint64{1}}
	ops := []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "big"}, {Kind: graph.OpCreateVertex, Vertex: "bare"},
		{Kind: graph.OpSetVertexProp, Vertex: "big", Key: "city", Value: "ithaca"}}
	for i := 0; i < 8; i++ {
		e := graph.EdgeID(fmt.Sprintf("e%d", i))
		ops = append(ops, graph.Op{Kind: graph.OpCreateEdge, Vertex: "big", Edge: e, To: graph.VertexID(fmt.Sprintf("u%d", i))},
			graph.Op{Kind: graph.OpSetEdgeProp, Vertex: "big", Edge: e, Key: "w", Value: fmt.Sprint(i)})
	}
	if n := s.ApplyTx(ops, ts, func(op graph.Op, err error) { t.Fatalf("%v: %v", op, err) }); n != len(ops) {
		t.Fatalf("applied %d of %d ops", n, len(ops))
	}
	view := s.At(func(w core.Timestamp) bool { return w.Compare(core.Timestamp{Clock: []uint64{2}}) == core.Before })
	var vv graph.VertexView
	for _, id := range []graph.VertexID{"big", "bare", "big", "bare"} {
		want, _ := view.Vertex(id)
		if !view.VertexInto(id, &vv) {
			t.Fatalf("%s not visible", id)
		}
		if diff := sameView(&vv, want); diff != "" {
			t.Fatalf("%s: %s", id, diff)
		}
	}
	if vv.Props != nil || vv.Edges != nil {
		t.Fatalf("bare after big: props %v, edges %v", vv.Props, vv.Edges)
	}
}

// A vertex whose out-edges are all dead fills a nil Edges, fresh or after a
// larger vertex, so views compare with reflect.DeepEqual; the larger
// vertex's array is kept and its next fill is whole again.
func TestFillDeadEdgesOnlyIsNil(t *testing.T) {
	s := graph.NewStore()
	stamp := func(n uint64) core.Timestamp { return core.Timestamp{Clock: []uint64{n}} }
	ops := []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "big"}, {Kind: graph.OpCreateVertex, Vertex: "dead"}}
	for i := 0; i < 8; i++ {
		ops = append(ops, graph.Op{Kind: graph.OpCreateEdge, Vertex: "big", Edge: graph.EdgeID(fmt.Sprintf("b%d", i)), To: "dead"})
	}
	for i := 0; i < 3; i++ {
		ops = append(ops, graph.Op{Kind: graph.OpCreateEdge, Vertex: "dead", Edge: graph.EdgeID(fmt.Sprintf("d%d", i)), To: "big"})
	}
	if n := s.ApplyTx(ops, stamp(1), func(op graph.Op, err error) { t.Fatalf("%v: %v", op, err) }); n != len(ops) {
		t.Fatalf("applied %d of %d ops", n, len(ops))
	}
	for i := 0; i < 3; i++ {
		if err := s.Apply(graph.Op{Kind: graph.OpDeleteEdge, Vertex: "dead", Edge: graph.EdgeID(fmt.Sprintf("d%d", i))}, stamp(2)); err != nil {
			t.Fatal(err)
		}
	}
	view := s.At(func(w core.Timestamp) bool { return w.Compare(stamp(3)) == core.Before })
	if fresh, ok := view.Vertex("dead"); !ok || fresh.Edges != nil {
		t.Fatalf("fresh fill of a vertex with only dead edges: ok=%v edges %#v", ok, fresh)
	}
	var vv graph.VertexView
	for _, id := range []graph.VertexID{"big", "dead", "big"} {
		if !view.VertexInto(id, &vv) {
			t.Fatalf("%s not visible", id)
		}
		want := 8
		if id == "dead" {
			want = 0
			if vv.Edges != nil {
				t.Fatalf("dead after big: edges %#v, want nil", vv.Edges)
			}
		}
		if len(vv.Edges) != want {
			t.Fatalf("%s: %d edges, want %d", id, len(vv.Edges), want)
		}
	}
}

// LatestWrites returns every maximal stamp of a vertex's history, so two
// concurrent last writes both, and only the later write once one follows
// them both.
func TestLatestWritesKeepsConcurrentPair(t *testing.T) {
	ts := func(owner int, a, b uint64) core.Timestamp {
		return core.Timestamp{Owner: owner, Clock: []uint64{a, b}}
	}
	created, ta, tb, after := ts(0, 1, 0), ts(0, 2, 0), ts(1, 1, 1), ts(0, 3, 1)
	for _, order := range [][]core.Timestamp{{ta, tb}, {tb, ta}} {
		s := graph.NewStore()
		if err := s.Apply(graph.Op{Kind: graph.OpCreateVertex, Vertex: "v"}, created); err != nil {
			t.Fatal(err)
		}
		for i, w := range order {
			if err := s.Apply(graph.Op{Kind: graph.OpCreateEdge, Vertex: "v", Edge: graph.EdgeID(fmt.Sprint(i)), To: "u"}, w); err != nil {
				t.Fatal(err)
			}
		}
		got := s.LatestWrites("v")
		if len(got) != 2 || !slices.ContainsFunc(got, ta.Equals) || !slices.ContainsFunc(got, tb.Equals) {
			t.Fatalf("LatestWrites = %v, want %v and %v", got, ta, tb)
		}
		if err := s.Apply(graph.Op{Kind: graph.OpSetVertexProp, Vertex: "v", Key: "k", Value: "x"}, after); err != nil {
			t.Fatal(err)
		}
		if got := s.LatestWrites("v"); len(got) != 1 || !got[0].Equals(after) {
			t.Fatalf("LatestWrites after a later write = %v, want [%v]", got, after)
		}
	}
	if got := graph.NewStore().LatestWrites("absent"); got != nil {
		t.Fatalf("LatestWrites of an absent vertex = %v", got)
	}
}
