package nodeprog

import (
	"testing"

	"weaver/internal/graph"
)

func view(id graph.VertexID, props map[string]string, edges ...graph.EdgeView) *graph.VertexView {
	return &graph.VertexView{ID: id, Props: props, Edges: edges}
}

func edge(to graph.VertexID, props map[string]string) graph.EdgeView {
	return graph.EdgeView{ID: graph.EdgeID("e-" + to), To: to, Props: props}
}

func TestRegistryBuiltinsAndDuplicates(t *testing.T) {
	r := NewRegistry()
	want := []string{"get_node", "get_edges", "count_edges", "traverse",
		"reachability", "shortest_path", "clustering_coefficient", "clustering_neighbor", "block_render"}
	for _, name := range want {
		if _, ok := r.Get(name); !ok {
			t.Errorf("builtin %q missing", name)
		}
	}
	if len(r.progs) != len(want) {
		t.Errorf("registry holds %d programs, want exactly the %d built-ins", len(r.progs), len(want))
	}
	// Reachable sets are traverse's and batched degrees are get_node's: no
	// second program of either shape.
	for _, name := range []string{"label_propagation", "connected_component", "degree_sample"} {
		if _, ok := r.Get(name); ok {
			t.Errorf("deleted program %q is registered", name)
		}
	}
	if _, ok := r.Get("nope"); ok {
		t.Error("unknown program must miss")
	}
	if err := r.Register(GetNode{}); err == nil {
		t.Error("duplicate registration must fail")
	}
}

func TestGetNodeVisit(t *testing.T) {
	ctx := &Context{VertexID: "v", Vertex: view("v", map[string]string{"name": "x"}, edge("a", nil), edge("b", nil))}
	res, err := GetNode{}.Visit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var d NodeData
	if err := Decode(res.Return, &d); err != nil {
		t.Fatal(err)
	}
	if d.ID != "v" || d.Props["name"] != "x" || d.NumEdges != 2 || len(res.Hops) != 0 {
		t.Fatalf("unexpected %+v", d)
	}
	// Missing vertex: graceful no-op.
	if res, err := (GetNode{}).Visit(&Context{VertexID: "ghost"}); err != nil || res.Return != nil {
		t.Fatalf("nil vertex must be a no-op, got %+v err %v", res, err)
	}
}

func TestGetEdgesAndCountEdges(t *testing.T) {
	ctx := &Context{VertexID: "v", Vertex: view("v", nil, edge("b", nil), edge("a", nil))}
	res, err := GetEdges{}.Visit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var d NodeData
	Decode(res.Return, &d)
	if len(d.EdgesTo) != 2 || d.EdgesTo[0] != "a" || d.EdgesTo[1] != "b" {
		t.Fatalf("edges not sorted/complete: %+v", d.EdgesTo)
	}
	res, err = CountEdges{}.Visit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	Decode(res.Return, &n)
	if n != 2 {
		t.Fatalf("count = %d", n)
	}
}

func TestTraverseFiltersAndMarksVisited(t *testing.T) {
	p := Encode(TraverseParams{PropKey: "color", PropValue: "red"})
	ctx := &Context{
		VertexID: "v",
		Vertex: view("v", nil,
			edge("a", map[string]string{"color": "red"}),
			edge("b", map[string]string{"color": "blue"}),
			edge("c", nil)),
		Params: p,
	}
	res, err := Traverse{}.Visit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hops) != 1 || res.Hops[0].Vertex != "a" {
		t.Fatalf("filter failed: %+v", res.Hops)
	}
	var vid graph.VertexID
	Decode(res.Return, &vid)
	if vid != "v" {
		t.Fatalf("return = %v", vid)
	}
	// Second visit: already visited, no hops, no return.
	ctx.State = res.State
	res2, err := Traverse{}.Visit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Return != nil || len(res2.Hops) != 0 {
		t.Fatalf("revisit must be silent: %+v", res2)
	}
}

func TestTraverseDepthLimit(t *testing.T) {
	p := Encode(TraverseParams{MaxDepth: 1, Depth: 1})
	ctx := &Context{VertexID: "v", Vertex: view("v", nil, edge("a", nil)), Params: p}
	res, err := Traverse{}.Visit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hops) != 0 {
		t.Fatal("depth limit must stop scatter")
	}
}

func TestReachabilityStopsAtTarget(t *testing.T) {
	p := Encode(ReachParams{Target: "t"})
	res, err := Reachability{}.Visit(&Context{VertexID: "t", Vertex: view("t", nil, edge("z", nil)), Params: p})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	Decode(res.Return, &found)
	if !found || len(res.Hops) != 0 {
		t.Fatalf("target visit: found=%v hops=%d", found, len(res.Hops))
	}
	res, err = Reachability{}.Visit(&Context{VertexID: "m", Vertex: view("m", nil, edge("t", nil)), Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if res.Return != nil || len(res.Hops) != 1 {
		t.Fatalf("intermediate visit: %+v", res)
	}
}

func TestShortestPathRelaxation(t *testing.T) {
	sp := ShortestPath{}
	p3 := Encode(SPParams{Target: "t", Dist: 3})
	ctx := &Context{VertexID: "m", Vertex: view("m", nil, edge("x", nil)), Params: p3}
	res, err := sp.Visit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hops) != 1 {
		t.Fatal("first wave must scatter")
	}
	// A worse wave (dist 5) must be absorbed.
	ctx.State = res.State
	ctx.Params = Encode(SPParams{Target: "t", Dist: 5})
	res2, _ := sp.Visit(ctx)
	if len(res2.Hops) != 0 {
		t.Fatal("worse distance must not scatter")
	}
	// A better wave (dist 1) must re-scatter.
	ctx.Params = Encode(SPParams{Target: "t", Dist: 1})
	res3, _ := sp.Visit(ctx)
	if len(res3.Hops) != 1 {
		t.Fatal("better distance must re-scatter")
	}
	// At the target, return the distance.
	res4, _ := sp.Visit(&Context{VertexID: "t", Vertex: view("t", nil), Params: Encode(SPParams{Target: "t", Dist: 2})})
	var out SPResult
	Decode(res4.Return, &out)
	if out.Dist != 2 {
		t.Fatalf("dist = %d", out.Dist)
	}
}

func TestClusteringTwoPhase(t *testing.T) {
	// Center v with neighbors a, b; a→b exists so one closing link.
	center := &Context{VertexID: "v", Vertex: view("v", nil, edge("a", nil), edge("b", nil))}
	res, err := ClusteringCenter{}.Visit(center)
	if err != nil {
		t.Fatal(err)
	}
	var cr CCResult
	Decode(res.Return, &cr)
	if !cr.IsCenter || cr.Degree != 2 || len(res.Hops) != 2 {
		t.Fatalf("center: %+v hops=%d", cr, len(res.Hops))
	}
	for _, h := range res.Hops {
		if h.Program != "clustering_neighbor" {
			t.Fatalf("hop must chain to clustering_neighbor, got %q", h.Program)
		}
	}
	nb := &Context{VertexID: "a", Vertex: view("a", nil, edge("b", nil), edge("z", nil)), Params: res.Hops[0].Params}
	nres, err := ClusteringNeighbor{}.Visit(nb)
	if err != nil {
		t.Fatal(err)
	}
	var nr CCResult
	Decode(nres.Return, &nr)
	if nr.IsCenter || nr.Links != 1 {
		t.Fatalf("links = %d, want 1", nr.Links)
	}
}

func TestClusteringDegreeUnder2NoHops(t *testing.T) {
	res, err := ClusteringCenter{}.Visit(&Context{VertexID: "v", Vertex: view("v", nil, edge("a", nil))})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hops) != 0 {
		t.Fatal("degree<2 must not scatter")
	}
}

func TestBlockRenderTwoPhase(t *testing.T) {
	blockCtx := &Context{
		VertexID: "block/5",
		Vertex: view("block/5", nil,
			edge("tx/1", map[string]string{"kind": "tx"}),
			edge("tx/2", map[string]string{"kind": "tx"}),
			edge("block/4", map[string]string{"kind": "prev"})),
	}
	res, err := BlockRender{}.Visit(blockCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hops) != 2 {
		t.Fatalf("block phase must hop to 2 txs, got %d", len(res.Hops))
	}
	txCtx := &Context{
		VertexID: "tx/1",
		Vertex: view("tx/1", nil,
			edge("tx/0", map[string]string{"kind": "in"}),
			edge("addr/a", map[string]string{"kind": "out"}),
			edge("addr/b", map[string]string{"kind": "out"})),
		Params: res.Hops[0].Params,
	}
	res2, err := BlockRender{}.Visit(txCtx)
	if err != nil {
		t.Fatal(err)
	}
	var d BlockTxData
	Decode(res2.Return, &d)
	if d.Tx != "tx/1" || len(d.Inputs) != 1 || len(d.Outputs) != 2 {
		t.Fatalf("render mismatch: %+v", d)
	}
}
