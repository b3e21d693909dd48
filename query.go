package weaver

// Index query API (internal/plan). Every index query — Lookup,
// LookupRange, LookupWhere — is one predicate conjunction executed as an
// explicit plan: the gatekeeper consults its marker catalog to pick the
// minimal shard set, pushes the conjunction and limit down to the shards,
// scatters concurrently, and merges. Explain and ExplainWhere expose the
// plan a query ran with, plus its measured reality.

import (
	"weaver/internal/gatekeeper"
	"weaver/internal/plan"
	"weaver/internal/wire"
)

// Where is one predicate in a conjunction passed to LookupWhere: the
// indexed property Key compared to Value under Op. All predicates in one
// call must hold simultaneously (AND semantics).
type Where = wire.Where

// Predicate comparison operators for Where.Op. Values are ordered
// lexicographically.
const (
	OpEq = wire.OpEq // Key == Value
	OpGe = wire.OpGe // Key >= Value (empty Value = unbounded below)
	OpLe = wire.OpLe // Key <= Value (empty Value = unbounded above)
	OpGt = wire.OpGt // Key >  Value
	OpLt = wire.OpLt // Key <  Value
)

// Explanation reports how a query was planned and what actually happened:
// the chosen shard set, what was pruned, actual row counts, and per-stage
// timings. Produced by Client.Explain and Client.ExplainWhere.
type Explanation = plan.Explanation

// LookupWhere returns the vertices satisfying every predicate in wheres
// (AND), sorted by vertex ID, truncated to the first limit matches when
// limit > 0 (0 = unlimited). Like Lookup it is a strictly serializable
// snapshot read: the result is exactly the set of vertices whose
// properties satisfied the conjunction at the returned timestamp. The
// conjunction is evaluated shard-side (predicate and limit pushdown);
// with at least one equality predicate the planner contacts only the
// shards whose marker catalog admits a match, not the full cluster.
// Fails with ErrNoIndex when any predicate key is not indexed.
func (cl *Client) LookupWhere(limit int, wheres ...Where) ([]VertexID, Timestamp, error) {
	return cl.fresh().lookup(gatekeeper.LookupOptions{Wheres: wheres, Limit: limit})
}

// BroadcastWhere is LookupWhere with shard pruning bypassed: every shard
// is contacted regardless of the marker catalog. Planned execution is
// result-identical to this by construction — tests use it as the
// planner-equivalence oracle and benchmarks as the latency baseline.
func (cl *Client) BroadcastWhere(limit int, wheres ...Where) ([]VertexID, Timestamp, error) {
	return cl.fresh().lookup(gatekeeper.LookupOptions{Wheres: wheres, Limit: limit, ForceBroadcast: true})
}

// Explain runs Lookup(key, value) and reports the plan it executed:
// which shards were contacted, which were pruned, actual rows, and
// per-stage timings. The query really runs — actual numbers are measured,
// not simulated.
func (cl *Client) Explain(key, value string) ([]VertexID, Explanation, error) {
	return cl.ExplainWhere(0, wire.Eq(key, value)...)
}

// ExplainWhere is Explain for a predicate conjunction with an optional
// limit — the diagnostic twin of LookupWhere.
func (cl *Client) ExplainWhere(limit int, wheres ...Where) ([]VertexID, Explanation, error) {
	var ex Explanation
	ids, _, err := cl.fresh().lookup(gatekeeper.LookupOptions{Wheres: wheres, Limit: limit, Explain: &ex})
	return ids, ex, err
}

// LookupWhere is Client.LookupWhere evaluated against the graph as of the
// fixed timestamp.
func (r *ReadClient) LookupWhere(limit int, wheres ...Where) ([]VertexID, error) {
	ids, _, err := r.rd.lookup(gatekeeper.LookupOptions{Wheres: wheres, Limit: limit})
	return ids, err
}

// BroadcastWhere is Client.BroadcastWhere — the pruning-bypassed oracle —
// at the fixed timestamp.
func (r *ReadClient) BroadcastWhere(limit int, wheres ...Where) ([]VertexID, error) {
	ids, _, err := r.rd.lookup(gatekeeper.LookupOptions{Wheres: wheres, Limit: limit, ForceBroadcast: true})
	return ids, err
}
