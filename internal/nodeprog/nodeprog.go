// Package nodeprog implements Weaver's node programs (§2.3): stored-
// procedure-style read-only graph queries that traverse the graph in an
// application-defined way using a scatter/gather model. A program visits a
// vertex, reads its snapshot state (vertex view at the program's
// timestamp), updates its per-vertex prog_state, optionally returns a
// value, and names the next vertices to visit with parameters to pass
// them.
//
// Programs run atomically and in isolation on a logically consistent
// snapshot of the graph: the shard runtime (internal/shard) delays visits
// until concurrent transactions execute and resolves version visibility
// through the timeline oracle. Per-query state is garbage collected when
// the query terminates on all servers (§4.5).
//
// Params, State and Return are opaque bytes to the runtime. The built-in
// programs fill them with Encode and read them with Decode, which know
// only this package's payload types and a few primitives (codec.go). An
// application that registers its own programs (weaver.Cluster.Registry)
// encodes its payloads itself, in any format, and passes the bytes.
//
// A program reads its vertex through the Context: Exists says whether the
// vertex is visible at the program's timestamp, and View materializes it —
// properties and live out-edges — on its first call. The shard resolves
// only existence before a visit, so a visit that never calls View (a
// revisit, a leaf at the depth limit, an absent vertex) costs one map probe
// and no edge scan; the built-ins test their state and depth first.
//
// A visit allocates only what it sends: the shard hands every visit of a
// batch the same Context and fills the same vertex view, so a Context and
// its view are valid only until Visit returns. A program keeps neither;
// what it returns or stores from the view it encodes (or copies) first, as
// the built-ins do. The same goes for hops: a program that scatters builds
// Result.Hops in the Context's reusable buffer (HopBuffer), and the shard
// consumes them before the next Visit, so a visit's hops cost no
// allocation once the buffer has grown to the largest fan-out.
package nodeprog

import (
	"fmt"
	"sync"

	"weaver/internal/core"
	"weaver/internal/graph"
)

// Hop names the next vertex to visit and the parameters to deliver there
// (the scatter phase: prog_params of the next visit). Program optionally
// chains into a different registered program at the next vertex (empty =
// continue with the same program); applications direct all aspects of
// propagation (§2.3).
type Hop struct {
	Vertex  graph.VertexID
	Params  []byte
	Program string
}

// Context is what a program receives at one vertex visit. It is the
// shard's, reused for the next visit: the Context and the view View
// returns (its Props maps and its Edges array) are valid only until Visit
// returns, so a Result never points into them — except Result.Hops, which
// may be the Context's hop buffer (HopBuffer). State and Params are
// read-only bytes that outlive the visit; a program may pass Params on.
type Context struct {
	// Query identifies the running query (the program's timestamp ID).
	Query core.ID
	// TS is the program's refinable timestamp; the snapshot it reads.
	TS core.Timestamp
	// VertexID is the vertex being visited.
	VertexID graph.VertexID
	// Vertex is View's memo: nil until View fills it. Programs read
	// through Exists and View, not this field; only a Context built by
	// hand, with no source (Source), presets it to the vertex's view, or
	// leaves it nil for an absent vertex.
	Vertex *graph.VertexView
	// State is this vertex's prog_state from a previous visit of the
	// same query, nil on first visit.
	State []byte
	// Params carries the prog_params from the previous hop.
	Params []byte

	// view, inc and into are the source (Source): the incarnation of
	// VertexID visible at TS, nil when none, and where View fills it.
	view *graph.View
	inc  *graph.Vertex
	into *graph.VertexView
	// hops is the array HopBuffer hands out, kept across visits.
	hops []Hop
}

// HopBuffer returns the Context's hop buffer, empty, with room for n hops.
// A program appends its next visits to it and returns them as Result.Hops;
// the runtime consumes them before the next Visit on this Context, which
// hands the same array out again. The buffer grows to the largest n asked
// for, so a visit's hops allocate nothing in steady state.
func (c *Context) HopBuffer(n int) []Hop {
	if cap(c.hops) < n {
		c.hops = make([]Hop, 0, n)
	}
	return c.hops[:0]
}

// Source points the Context at the vertex a visit reads: inc is the
// incarnation of VertexID that view sees (view.Incarnation; nil when the
// vertex is not visible), and View fills it into into on demand. The shard
// calls it once per visit, with Vertex reset to nil.
func (c *Context) Source(view *graph.View, inc *graph.Vertex, into *graph.VertexView) {
	c.view, c.inc, c.into = view, inc, into
}

// Exists reports whether the visited vertex is visible at TS. Programs
// must tolerate an absent one: graphs change between a hop's creation and
// its execution only through *later* transactions, but a hop may name a
// vertex that was already dead at TS (deleted, or never existed).
func (c *Context) Exists() bool {
	return c.inc != nil || c.Vertex != nil
}

// View returns the visited vertex's snapshot at TS — its live properties
// and live out-edges with theirs — or nil if it does not exist. The first
// call fills it; later calls in the same visit return the same view. It is
// read-only: its Props (and each edge's) is nil when nothing is visible,
// and a program — a custom one registered through weaver.Cluster.Registry
// too — must not write to it, nor keep or return it (its maps and Edges
// array are refilled for the next visit).
func (c *Context) View() *graph.VertexView {
	if c.Vertex == nil && c.inc != nil {
		c.view.Fill(c.inc, c.into)
		c.Vertex = c.into
	}
	return c.Vertex
}

// Result is the outcome of one visit.
type Result struct {
	// State replaces the vertex's prog_state for this query. nil keeps
	// the previous state.
	State []byte
	// Return, when non-nil, appends a value to the query's result set
	// delivered to the client (the gather phase at the coordinator).
	Return []byte
	// Hops are the next visits to schedule. They may alias the Context's
	// hop buffer (HopBuffer): the runtime consumes them before the next
	// Visit on that Context, and a caller that keeps a Result past it
	// copies Hops first.
	Hops []Hop
}

// Program is one registered node program. Implementations must be
// deterministic functions of the Context (they may run on any shard and,
// after failures, may be re-executed).
type Program interface {
	// Name is the unique registry key; it travels on the wire.
	Name() string
	// Visit executes the program at one vertex.
	Visit(ctx *Context) (Result, error)
}

// Registry maps program names to implementations. Every shard in a cluster
// must hold an identical registry; programs are addressed by name on the
// wire so they need never be serialized.
type Registry struct {
	mu    sync.RWMutex
	progs map[string]Program
}

// NewRegistry returns a registry pre-loaded with the built-in programs
// (get_node, get_edges, count_edges, traverse, reachability, shortest_path,
// clustering_coefficient, clustering_neighbor, block_render).
func NewRegistry() *Registry {
	r := &Registry{progs: make(map[string]Program)}
	for _, p := range builtins() {
		r.MustRegister(p)
	}
	return r
}

// Register adds a program; it fails on duplicate names.
func (r *Registry) Register(p Program) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.progs[p.Name()]; dup {
		return fmt.Errorf("nodeprog: duplicate program %q", p.Name())
	}
	r.progs[p.Name()] = p
	return nil
}

// MustRegister adds a program and panics on duplicates (init-time use).
func (r *Registry) MustRegister(p Program) {
	if err := r.Register(p); err != nil {
		panic(err)
	}
}

// Get looks up a program by name.
func (r *Registry) Get(name string) (Program, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.progs[name]
	return p, ok
}
