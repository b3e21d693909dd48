// Package workload generates the synthetic datasets used by the tests,
// the ledger and the examples, substituting for the paper's proprietary or
// oversized inputs while preserving the properties each experiment
// exercises:
//
//   - Blockchain: a deterministic Bitcoin-style transaction graph whose
//     blocks grow with height, standing in for the real blockchain
//     (§6.1, Figs 7-8 — the x-axis is block size, which we reproduce).
//   - Social: a preferential-attachment (power-law) digraph standing in
//     for the LiveJournal snapshot (§6.2, Figs 9-10 — degree skew is what
//     stresses the ordering path).
//   - Random: a uniform random digraph standing in for the Twitter
//     snapshots (§6.3-6.4, Figs 11-13 — traversal fan-out at reduced
//     scale).
//
// All generators are seeded and deterministic.
package workload

import (
	"fmt"
	"math/rand"

	"weaver/internal/graph"
)

// Edge is one directed edge in a generated graph.
type Edge struct {
	From, To graph.VertexID
}

// Graph is a generated dataset: vertex IDs and directed edges.
type Graph struct {
	Vertices []graph.VertexID
	Edges    []Edge
	// Out is the adjacency list (indices into Vertices are not used;
	// adjacency is by ID).
	Out map[graph.VertexID][]graph.VertexID
}

func newGraph(n int) *Graph {
	return &Graph{Out: make(map[graph.VertexID][]graph.VertexID, n)}
}

func (g *Graph) addVertex(v graph.VertexID) {
	g.Vertices = append(g.Vertices, v)
}

func (g *Graph) addEdge(from, to graph.VertexID) {
	g.Edges = append(g.Edges, Edge{From: from, To: to})
	g.Out[from] = append(g.Out[from], to)
}

// Social generates a directed preferential-attachment graph with n vertices
// and approximately m out-edges per vertex (Barabási–Albert flavor): new
// vertices attach to existing ones with probability proportional to their
// current in-degree, yielding the heavy-tailed degree distribution of real
// social networks.
func Social(n, m int, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	g := newGraph(n)
	// targets is a repeated-vertex pool implementing preferential
	// attachment: vertices appear once per incident edge.
	targets := make([]graph.VertexID, 0, 2*n*m)
	for i := 0; i < n; i++ {
		v := graph.VertexID(fmt.Sprintf("user/%d", i))
		g.addVertex(v)
		k := m
		if i < m {
			k = i // early vertices connect to all predecessors
		}
		seen := make(map[graph.VertexID]bool, k)
		for j := 0; j < k; j++ {
			var to graph.VertexID
			if len(targets) == 0 {
				break
			}
			for tries := 0; tries < 8; tries++ {
				to = targets[r.Intn(len(targets))]
				if to != v && !seen[to] {
					break
				}
			}
			if to == v || seen[to] {
				continue
			}
			seen[to] = true
			g.addEdge(v, to)
			targets = append(targets, to)
		}
		targets = append(targets, v)
	}
	return g
}

// Random generates a uniform random digraph with n vertices and e edges
// between vertices chosen uniformly at random (§6.3: "reachability queries
// on a small Twitter graph … between vertices chosen uniformly at random").
func Random(n, e int, seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	g := newGraph(n)
	for i := 0; i < n; i++ {
		g.addVertex(graph.VertexID(fmt.Sprintf("node/%d", i)))
	}
	for i := 0; i < e; i++ {
		from := g.Vertices[r.Intn(n)]
		to := g.Vertices[r.Intn(n)]
		if from == to {
			continue
		}
		g.addEdge(from, to)
	}
	return g
}
