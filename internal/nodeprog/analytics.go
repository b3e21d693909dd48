package nodeprog

import (
	"weaver/internal/graph"
)

// Analytics node programs beyond the built-in traversals: the workloads
// §6.3 motivates ("label propagation, connected components, and graph
// search"). Registered by NewRegistry alongside the core programs.

// LPParams parameterizes label_propagation: the label flooding from the
// start vertices.
type LPParams struct {
	Label string
}

// lpState stores the strongest label seen at a vertex (string-max wins, so
// propagation is deterministic regardless of arrival order).
type lpState struct {
	Label string
}

// LPResult reports one vertex's final label adoption.
type LPResult struct {
	Vertex graph.VertexID
	Label  string
}

// LabelPropagation floods a label along out-edges: a vertex adopts the
// lexicographically largest label it has seen and re-propagates on
// improvement. Deterministic under any hop interleaving.
type LabelPropagation struct{}

// Name implements Program.
func (LabelPropagation) Name() string { return "label_propagation" }

// Visit implements Program.
func (LabelPropagation) Visit(ctx *Context) (Result, error) {
	if !ctx.Exists() {
		return Result{}, nil
	}
	var p LPParams
	if err := Decode(ctx.Params, &p); err != nil {
		return Result{}, err
	}
	var st lpState
	if ctx.State != nil {
		if err := Decode(ctx.State, &st); err != nil {
			return Result{}, err
		}
	}
	if st.Label >= p.Label && st.Label != "" {
		return Result{}, nil // no improvement: stop this wave
	}
	res := Result{
		State:  Encode(lpState{Label: p.Label}),
		Return: Encode(LPResult{Vertex: ctx.VertexID, Label: p.Label}),
	}
	vv := ctx.View()
	res.Hops = ctx.HopBuffer(len(vv.Edges))
	for _, e := range vv.Edges {
		res.Hops = append(res.Hops, Hop{Vertex: e.To, Params: ctx.Params})
	}
	return res, nil
}

// ComponentParams parameterizes connected_component: the component
// identity being flooded (the start vertex's ID).
type ComponentParams struct {
	Root graph.VertexID
}

// ConnectedComponent marks every vertex reachable from the start with the
// root's identity — the directed connected-component (reachable-set)
// query. Results are the member vertex IDs.
type ConnectedComponent struct{}

// Name implements Program.
func (ConnectedComponent) Name() string { return "connected_component" }

// Visit implements Program.
func (ConnectedComponent) Visit(ctx *Context) (Result, error) {
	if isVisited(ctx.State) || !ctx.Exists() {
		return Result{}, nil
	}
	res := Result{
		State:  visitedMark,
		Return: Encode(ctx.VertexID),
	}
	vv := ctx.View()
	res.Hops = ctx.HopBuffer(len(vv.Edges))
	for _, e := range vv.Edges {
		res.Hops = append(res.Hops, Hop{Vertex: e.To, Params: ctx.Params})
	}
	return res, nil
}

// DegreeResult is one vertex's out-degree (degree_histogram).
type DegreeResult struct {
	Vertex graph.VertexID
	Degree int
}

// DegreeSample reports the out-degree of each start vertex; clients build
// degree histograms from a vertex sample without shipping edge lists.
type DegreeSample struct{}

// Name implements Program.
func (DegreeSample) Name() string { return "degree_sample" }

// Visit implements Program.
func (DegreeSample) Visit(ctx *Context) (Result, error) {
	vv := ctx.View()
	if vv == nil {
		return Result{}, nil
	}
	return Result{Return: Encode(DegreeResult{Vertex: ctx.VertexID, Degree: len(vv.Edges)})}, nil
}
