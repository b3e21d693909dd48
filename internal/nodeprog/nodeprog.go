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

// Context is the read view a program receives at one vertex visit.
type Context struct {
	// Query identifies the running query (the program's timestamp ID).
	Query core.ID
	// TS is the program's refinable timestamp; the snapshot it reads.
	TS core.Timestamp
	// VertexID is the vertex being visited.
	VertexID graph.VertexID
	// Vertex is the materialized snapshot of the vertex, or nil if the
	// vertex is not visible at TS (deleted, or never existed). Programs
	// must tolerate nil: graphs change between a hop's creation and its
	// execution only through *later* transactions, but a hop may name a
	// vertex that was already dead at TS.
	Vertex *graph.VertexView
	// State is this vertex's prog_state from a previous visit of the
	// same query, nil on first visit.
	State []byte
	// Params carries the prog_params from the previous hop.
	Params []byte
}

// Result is the outcome of one visit.
type Result struct {
	// State replaces the vertex's prog_state for this query. nil keeps
	// the previous state.
	State []byte
	// Return, when non-nil, appends a value to the query's result set
	// delivered to the client (the gather phase at the coordinator).
	Return []byte
	// Hops are the next visits to schedule.
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
// (get_node, get_edges, count_edges, traverse, reachability,
// shortest_path, clustering_coefficient, block_render).
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
