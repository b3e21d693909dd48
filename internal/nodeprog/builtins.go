package nodeprog

import (
	"sort"

	"weaver/internal/graph"
)

func builtins() []Program {
	return []Program{
		GetNode{}, GetEdges{}, CountEdges{}, Traverse{},
		Reachability{}, ShortestPath{}, ClusteringCenter{},
		ClusteringNeighbor{}, BlockRender{},
		LabelPropagation{}, ConnectedComponent{}, DegreeSample{},
	}
}

// NodeData is the Return payload of get_node and get_edges.
type NodeData struct {
	ID       graph.VertexID
	Props    map[string]string
	EdgesTo  []graph.VertexID
	NumEdges int
}

// GetNode reads one vertex: its properties and out-degree. This is the
// TAO-style get_node operation (Table 1) and the workload of Fig 12.
type GetNode struct{}

// Name implements Program.
func (GetNode) Name() string { return "get_node" }

// Visit implements Program.
func (GetNode) Visit(ctx *Context) (Result, error) {
	vv := ctx.View()
	if vv == nil {
		return Result{}, nil
	}
	return Result{Return: Encode(NodeData{
		ID:       ctx.VertexID,
		Props:    vv.Props,
		NumEdges: len(vv.Edges),
	})}, nil
}

// GetEdges reads one vertex's live out-edges (TAO get_edges, Table 1).
type GetEdges struct{}

// Name implements Program.
func (GetEdges) Name() string { return "get_edges" }

// Visit implements Program.
func (GetEdges) Visit(ctx *Context) (Result, error) {
	vv := ctx.View()
	if vv == nil {
		return Result{}, nil
	}
	out := make([]graph.VertexID, 0, len(vv.Edges))
	for _, e := range vv.Edges {
		out = append(out, e.To)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return Result{Return: Encode(NodeData{ID: ctx.VertexID, EdgesTo: out, NumEdges: len(out)})}, nil
}

// CountEdges counts one vertex's live out-edges (TAO count_edges, Table 1).
type CountEdges struct{}

// Name implements Program.
func (CountEdges) Name() string { return "count_edges" }

// Visit implements Program.
func (CountEdges) Visit(ctx *Context) (Result, error) {
	vv := ctx.View()
	if vv == nil {
		return Result{}, nil
	}
	return Result{Return: Encode(len(vv.Edges))}, nil
}

// TraverseParams configures the BFS traversal of Fig 3: follow only edges
// carrying PropKey (with PropValue if non-empty), up to MaxDepth hops
// (0 = unbounded).
type TraverseParams struct {
	PropKey   string
	PropValue string
	MaxDepth  int
	Depth     int
}

// visitedMark is the single-byte prog_state of traversal programs. The
// visited bit is stored raw: the hottest path in the system needs no
// codec to set or test it.
var visitedMark = []byte{1}

func isVisited(state []byte) bool { return len(state) == 1 && state[0] == 1 }

// Traverse is the paper's Fig 3 program: BFS over edges annotated with a
// given property, returning every visited vertex ID.
type Traverse struct{}

// Name implements Program.
func (Traverse) Name() string { return "traverse" }

// Visit implements Program.
func (Traverse) Visit(ctx *Context) (Result, error) {
	if isVisited(ctx.State) || !ctx.Exists() {
		return Result{}, nil
	}
	var p TraverseParams
	if err := Decode(ctx.Params, &p); err != nil {
		return Result{}, err
	}
	res := Result{
		State:  visitedMark,
		Return: Encode(ctx.VertexID),
	}
	if p.MaxDepth > 0 && p.Depth >= p.MaxDepth {
		return res, nil
	}
	vv := ctx.View()
	next := p
	next.Depth++
	np := Encode(next)
	res.Hops = ctx.HopBuffer(len(vv.Edges))
	for _, e := range vv.Edges {
		if p.PropKey != "" && !e.HasProp(p.PropKey, p.PropValue) {
			continue
		}
		res.Hops = append(res.Hops, Hop{Vertex: e.To, Params: np})
	}
	return res, nil
}

// ReachParams parameterizes the reachability query of §6.3: BFS from the
// start vertex looking for Target.
type ReachParams struct {
	Target    graph.VertexID
	PropKey   string
	PropValue string
}

// Reachability runs BFS and returns the target vertex ID iff reached.
type Reachability struct{}

// Name implements Program.
func (Reachability) Name() string { return "reachability" }

// Visit implements Program.
func (Reachability) Visit(ctx *Context) (Result, error) {
	if isVisited(ctx.State) || !ctx.Exists() {
		return Result{}, nil
	}
	var p ReachParams
	if err := Decode(ctx.Params, &p); err != nil {
		return Result{}, err
	}
	res := Result{State: visitedMark}
	if ctx.VertexID == p.Target {
		res.Return = Encode(true)
		return res, nil // no need to scatter past the target
	}
	vv := ctx.View()
	res.Hops = ctx.HopBuffer(len(vv.Edges))
	for _, e := range vv.Edges {
		if p.PropKey != "" && !e.HasProp(p.PropKey, p.PropValue) {
			continue
		}
		res.Hops = append(res.Hops, Hop{Vertex: e.To, Params: ctx.Params})
	}
	return res, nil
}

// SPParams parameterizes shortest_path: hop-count distance from the source
// accumulated along the way.
type SPParams struct {
	Target graph.VertexID
	Dist   int
}

// spState stores the best distance seen at this vertex (stateful node
// program per §2.3: "a shortest path query may require state to save the
// distance from the source vertex").
type spState struct {
	Dist int
	Set  bool
}

// SPResult is the Return payload emitted at the target.
type SPResult struct {
	Dist int
}

// ShortestPath finds the minimum hop count to Target, revisiting vertices
// when a shorter path arrives (asynchronous BFS with distance relaxation).
type ShortestPath struct{}

// Name implements Program.
func (ShortestPath) Name() string { return "shortest_path" }

// Visit implements Program.
func (ShortestPath) Visit(ctx *Context) (Result, error) {
	if !ctx.Exists() {
		return Result{}, nil
	}
	var p SPParams
	if err := Decode(ctx.Params, &p); err != nil {
		return Result{}, err
	}
	var st spState
	if ctx.State != nil {
		if err := Decode(ctx.State, &st); err != nil {
			return Result{}, err
		}
	}
	if st.Set && st.Dist <= p.Dist {
		return Result{}, nil // no improvement: stop this wave here
	}
	res := Result{State: Encode(spState{Dist: p.Dist, Set: true})}
	if ctx.VertexID == p.Target {
		res.Return = Encode(SPResult{Dist: p.Dist})
		return res, nil
	}
	vv := ctx.View()
	np := Encode(SPParams{Target: p.Target, Dist: p.Dist + 1})
	res.Hops = ctx.HopBuffer(len(vv.Edges))
	for _, e := range vv.Edges {
		res.Hops = append(res.Hops, Hop{Vertex: e.To, Params: np})
	}
	return res, nil
}

// CCParams parameterizes the two-phase local clustering coefficient program
// of §6.4 (Fig 13): Phase 0 runs at the center and scatters its neighbor
// set; phase 1 runs at each neighbor and counts edges back into the set.
type CCParams struct {
	Center    graph.VertexID
	Neighbors []graph.VertexID
}

// CCResult is one clustering-coefficient return value: the center visit
// reports its degree, each neighbor visit reports the count of its
// out-edges landing inside the center's neighborhood.
type CCResult struct {
	IsCenter bool
	Degree   int
	Links    int
}

// ClusteringCenter is phase 0 of the local clustering coefficient: executed
// at the center vertex, it fans out to every neighbor — "each vertex needs
// to contact all of its neighbors, resulting in a query that fans out one
// hop and returns" (§6.4).
type ClusteringCenter struct{}

// Name implements Program.
func (ClusteringCenter) Name() string { return "clustering_coefficient" }

// Visit implements Program.
func (ClusteringCenter) Visit(ctx *Context) (Result, error) {
	vv := ctx.View()
	if vv == nil {
		return Result{}, nil
	}
	nbrs := make([]graph.VertexID, 0, len(vv.Edges))
	for _, e := range vv.Edges {
		nbrs = append(nbrs, e.To)
	}
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
	res := Result{Return: Encode(CCResult{IsCenter: true, Degree: len(nbrs)})}
	if len(nbrs) < 2 {
		return res, nil
	}
	p := Encode(CCParams{Center: ctx.VertexID, Neighbors: nbrs})
	res.Hops = ctx.HopBuffer(len(nbrs))
	for _, n := range nbrs {
		res.Hops = append(res.Hops, Hop{Vertex: n, Params: p, Program: "clustering_neighbor"})
	}
	return res, nil
}

// ClusteringNeighbor is phase 1: executed at each neighbor, it counts its
// out-edges that land inside the center's neighborhood.
type ClusteringNeighbor struct{}

// Name implements Program.
func (ClusteringNeighbor) Name() string { return "clustering_neighbor" }

// Visit implements Program.
func (ClusteringNeighbor) Visit(ctx *Context) (Result, error) {
	vv := ctx.View()
	if vv == nil {
		return Result{}, nil
	}
	var p CCParams
	if err := Decode(ctx.Params, &p); err != nil {
		return Result{}, err
	}
	in := make(map[graph.VertexID]bool, len(p.Neighbors))
	for _, n := range p.Neighbors {
		in[n] = true
	}
	links := 0
	for _, e := range vv.Edges {
		if in[e.To] {
			links++
		}
	}
	return Result{Return: Encode(CCResult{Links: links})}, nil
}

// BlockTxData is one Bitcoin transaction rendered by block_render: its ID
// and its inputs/outputs read from the transaction vertex's edges
// (CoinGraph, §5.2/§6.1).
type BlockTxData struct {
	Tx      graph.VertexID
	Inputs  []graph.VertexID
	Outputs []graph.VertexID
}

// BlockRender renders a Bitcoin block: starting at the block vertex it
// follows "tx" edges to every transaction in the block; each transaction
// vertex returns its inputs and outputs. This is the block query of Fig 7/8.
type BlockRender struct{}

// Name implements Program.
func (BlockRender) Name() string { return "block_render" }

// Visit implements Program.
func (BlockRender) Visit(ctx *Context) (Result, error) {
	vv := ctx.View()
	if vv == nil {
		return Result{}, nil
	}
	if len(ctx.Params) == 0 {
		// Phase 0: the block vertex. Scatter to the block's txs.
		res := Result{Hops: ctx.HopBuffer(len(vv.Edges))}
		mark := Encode(true)
		for _, e := range vv.Edges {
			if e.HasProp("kind", "tx") {
				res.Hops = append(res.Hops, Hop{Vertex: e.To, Params: mark})
			}
		}
		return res, nil
	}
	// Phase 1: a transaction vertex. Return its inputs and outputs.
	d := BlockTxData{Tx: ctx.VertexID}
	for _, e := range vv.Edges {
		switch {
		case e.HasProp("kind", "in"):
			d.Inputs = append(d.Inputs, e.To)
		case e.HasProp("kind", "out"):
			d.Outputs = append(d.Outputs, e.To)
		}
	}
	sort.Slice(d.Inputs, func(i, j int) bool { return d.Inputs[i] < d.Inputs[j] })
	sort.Slice(d.Outputs, func(i, j int) bool { return d.Outputs[i] < d.Outputs[j] })
	return Result{Return: Encode(d)}, nil
}
