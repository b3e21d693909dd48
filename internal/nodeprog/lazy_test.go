package nodeprog

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/workload"
)

// stamp is the n-th timestamp of a single gatekeeper: Before is the plain
// counter order.
func stamp(n uint64) core.Timestamp { return core.Timestamp{Clock: []uint64{n}} }

// viewAt is the snapshot of s that sees every write stamped below n.
func viewAt(s *graph.Store, n uint64) *graph.View {
	at := stamp(n)
	return s.At(func(w core.Timestamp) bool { return w.Compare(at) == core.Before })
}

// lazyCtx is a Context as the shard builds it: only existence resolved,
// the view filled into into when the program asks.
func lazyCtx(view *graph.View, id graph.VertexID, into *graph.VertexView) *Context {
	c := &Context{VertexID: id}
	c.Source(view, view.Incarnation(id), into)
	return c
}

// Traverse reads a vertex's view only where it expands it: a revisit, a
// visit at the depth limit and a visit at an absent vertex leave the memo
// nil, and an expanding visit fills it once.
func TestTraverseFillsOnlyWhatItExpands(t *testing.T) {
	s := graph.NewStore()
	if n := s.ApplyTx([]graph.Op{
		{Kind: graph.OpCreateVertex, Vertex: "a"}, {Kind: graph.OpCreateVertex, Vertex: "gone"},
		{Kind: graph.OpSetVertexProp, Vertex: "a", Key: "city", Value: "ithaca"},
		{Kind: graph.OpCreateEdge, Vertex: "a", Edge: "e1", To: "b"},
		{Kind: graph.OpCreateEdge, Vertex: "a", Edge: "e2", To: "c"},
	}, stamp(1), func(op graph.Op, err error) { t.Fatalf("%v: %v", op, err) }); n != 5 {
		t.Fatalf("applied %d ops", n)
	}
	if err := s.Apply(graph.Op{Kind: graph.OpDeleteVertex, Vertex: "gone"}, stamp(2)); err != nil {
		t.Fatal(err)
	}
	view := viewAt(s, 3)
	var into graph.VertexView
	for _, tc := range []struct {
		name   string
		id     graph.VertexID
		state  []byte
		params TraverseParams
	}{
		{"revisit", "a", visitedMark, TraverseParams{MaxDepth: 2}},
		{"depth limit", "a", nil, TraverseParams{MaxDepth: 2, Depth: 2}},
		{"deleted", "gone", nil, TraverseParams{MaxDepth: 2}},
		{"never created", "ghost", nil, TraverseParams{MaxDepth: 2}},
	} {
		ctx := lazyCtx(view, tc.id, &into)
		ctx.State, ctx.Params = tc.state, Encode(tc.params)
		res, err := Traverse{}.Visit(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ctx.Vertex != nil {
			t.Errorf("%s: the visit filled the view", tc.name)
		}
		if len(res.Hops) != 0 || (res.Return != nil) != (tc.name == "depth limit") {
			t.Errorf("%s: result %+v", tc.name, res)
		}
	}

	ctx := lazyCtx(view, "a", &into)
	ctx.Params = Encode(TraverseParams{MaxDepth: 2})
	res, err := Traverse{}.Visit(ctx)
	if err != nil || len(res.Hops) != 2 {
		t.Fatalf("expanding visit: %+v, %v", res, err)
	}
	if ctx.Vertex != &into || into.ID != "a" || into.Props["city"] != "ithaca" {
		t.Fatalf("expanding visit: memo %p (view at %p) holding %+v", ctx.Vertex, &into, into)
	}
	into.ID = "marker" // a second fill would overwrite it
	if vv := ctx.View(); vv != &into || vv.ID != "marker" {
		t.Fatal("View filled the view again")
	}
}

// sameResult reports how two visits' results differ: "" when they match.
// State and Return compare byte for byte, except a Return that decodes as
// NodeData, whose props map encodes in map order; hops compare as a set,
// as they follow the edge map's order.
func sameResult(a, b Result) string {
	if !bytes.Equal(a.State, b.State) {
		return fmt.Sprintf("state %x, want %x", a.State, b.State)
	}
	if !bytes.Equal(a.Return, b.Return) {
		var na, nb NodeData
		if Decode(a.Return, &na) != nil || Decode(b.Return, &nb) != nil || !reflect.DeepEqual(na, nb) {
			return fmt.Sprintf("return %x, want %x", a.Return, b.Return)
		}
	}
	hops := func(hs []Hop) []string {
		out := make([]string, 0, len(hs))
		for _, h := range hs {
			out = append(out, fmt.Sprintf("%s/%s/%x", h.Vertex, h.Program, h.Params))
		}
		slices.Sort(out)
		return out
	}
	if ha, hb := hops(a.Hops), hops(b.Hops); !slices.Equal(ha, hb) {
		return fmt.Sprintf("hops %v, want %v", ha, hb)
	}
	return ""
}

// Every built-in returns the same result from a lazy Context (existence
// resolved, view filled on demand into one reused view, hops built in one
// reused hop buffer, as the shard runs visits) as from an eager one (the view materialized up front), over
// random histories — vertex and edge properties, edges and vertices
// deleted, vertices re-created — read at random points, with random
// params and prog_state.
func TestLazyVisitMatchesEager(t *testing.T) {
	seed := workload.TestSeed(t)
	for round := int64(0); round < 20; round++ {
		rng := rand.New(rand.NewSource(seed + round))
		s := graph.NewStore()
		vertex := func() graph.VertexID { return graph.VertexID(fmt.Sprintf("v%d", rng.Intn(6))) }
		kinds := []graph.OpKind{graph.OpCreateVertex, graph.OpCreateVertex, graph.OpDeleteVertex,
			graph.OpCreateEdge, graph.OpCreateEdge, graph.OpCreateEdge, graph.OpDeleteEdge,
			graph.OpSetVertexProp, graph.OpDelVertexProp, graph.OpSetEdgeProp, graph.OpSetEdgeProp, graph.OpDelEdgeProp}
		keys, values := []string{"kind", "w", "city"}, []string{"tx", "in", "out", "x"}
		n := uint64(0)
		for step := 0; step < 300; step++ {
			n++
			_ = s.Apply(graph.Op{Kind: kinds[rng.Intn(len(kinds))], Vertex: vertex(),
				Edge: graph.EdgeID(fmt.Sprintf("e%d", rng.Intn(12))), To: vertex(),
				Key: keys[rng.Intn(len(keys))], Value: values[rng.Intn(len(values))]}, stamp(n)) // most ops fail on a random history
		}
		ids := func() []graph.VertexID {
			out := make([]graph.VertexID, rng.Intn(4))
			for i := range out {
				out[i] = vertex()
			}
			return out
		}
		// params and state for one visit of each built-in.
		inputs := map[string]func() (params, state []byte){
			"get_node":               func() ([]byte, []byte) { return nil, nil },
			"get_edges":              func() ([]byte, []byte) { return nil, nil },
			"count_edges":            func() ([]byte, []byte) { return nil, nil },
			"degree_sample":          func() ([]byte, []byte) { return nil, nil },
			"clustering_coefficient": func() ([]byte, []byte) { return nil, nil },
			"traverse": func() ([]byte, []byte) {
				p := TraverseParams{MaxDepth: rng.Intn(3), Depth: rng.Intn(3)}
				if rng.Intn(2) == 0 {
					p.PropKey, p.PropValue = keys[rng.Intn(len(keys))], []string{"", "x"}[rng.Intn(2)]
				}
				return Encode(p), [][]byte{nil, visitedMark}[rng.Intn(2)]
			},
			"reachability": func() ([]byte, []byte) {
				p := ReachParams{Target: vertex()}
				if rng.Intn(2) == 0 {
					p.PropKey = keys[rng.Intn(len(keys))]
				}
				return Encode(p), [][]byte{nil, visitedMark}[rng.Intn(2)]
			},
			"connected_component": func() ([]byte, []byte) {
				return Encode(ComponentParams{Root: vertex()}), [][]byte{nil, visitedMark}[rng.Intn(2)]
			},
			"shortest_path": func() ([]byte, []byte) {
				var st []byte
				if rng.Intn(2) == 0 {
					st = Encode(spState{Dist: rng.Intn(4), Set: true})
				}
				return Encode(SPParams{Target: vertex(), Dist: rng.Intn(4)}), st
			},
			"label_propagation": func() ([]byte, []byte) {
				var st []byte
				if rng.Intn(2) == 0 {
					st = Encode(lpState{Label: values[rng.Intn(len(values))]})
				}
				return Encode(LPParams{Label: values[rng.Intn(len(values))]}), st
			},
			"clustering_neighbor": func() ([]byte, []byte) {
				return Encode(CCParams{Center: vertex(), Neighbors: ids()}), nil
			},
			"block_render": func() ([]byte, []byte) {
				return [][]byte{nil, Encode(true)}[rng.Intn(2)], nil
			},
		}
		// The view and the lazy Context, with its hop buffer, are reused
		// across visits, as the shard's are.
		var into graph.VertexView
		var lazy Context
		for visit := 0; visit < 300; visit++ {
			p := builtins()[rng.Intn(len(builtins()))]
			input, ok := inputs[p.Name()]
			if !ok {
				t.Fatalf("built-in %q has no inputs here: add them", p.Name())
			}
			params, state := input()
			at := uint64(rng.Intn(int(n)+1)) + 1
			view, id := viewAt(s, at), vertex()
			eager := &Context{VertexID: id, State: state, Params: params}
			if vv, ok := view.Vertex(id); ok {
				eager.Vertex = vv
			}
			lazy.VertexID, lazy.Vertex = id, nil
			lazy.Source(view, view.Incarnation(id), &into)
			lazy.State, lazy.Params = state, params
			want, werr := p.Visit(eager)
			got, gerr := p.Visit(&lazy)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("round %d visit %d: %s at %s@%d: lazy err %v, eager err %v", round, visit, p.Name(), id, at, gerr, werr)
			}
			if diff := sameResult(got, want); diff != "" {
				t.Fatalf("round %d visit %d: %s at %s@%d: lazy %s", round, visit, p.Name(), id, at, diff)
			}
			if lazy.Exists() != eager.Exists() {
				t.Fatalf("round %d visit %d: %s at %s@%d: Exists lazy %v, eager %v", round, visit, p.Name(), id, at, lazy.Exists(), eager.Exists())
			}
		}
	}
}
