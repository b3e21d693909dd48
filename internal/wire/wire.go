// Package wire defines the messages exchanged between Weaver servers over
// the transport fabric. Payloads are plain structs; on either fabric — the
// in-process one or TCP — they cross as binary frames, one hand-rolled
// codec per message type (frame.go, registered with the transport from an
// init here), and the receiver gets a decoded copy.
//
// A read crosses the wire as what to evaluate plus the ReadTS to evaluate
// it at (ProgHops, IndexLookup); the coordinator always sets ReadTS, so
// shards treat current and historical reads identically.
package wire

import (
	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/transport"
)

// TxForward carries one committed transaction's operations for a single
// shard (§4.2: after the backing store commits, the gatekeeper forwards the
// write-set to the involved shard servers, which apply it without further
// coordination). Seq restores the FIFO gatekeeper→shard channel.
type TxForward struct {
	TS  core.Timestamp
	Seq uint64
	Ops []graph.Op
	// Trace is the obs trace ID when this transaction is sampled for
	// span tracing; 0 (the common case) means untraced. On the wire it
	// is an append-only trailing field: absent when zero, so untraced
	// frames are byte-identical to the pre-trace format and old frames
	// decode as Trace == 0.
	Trace uint64
}

// Nop is a no-op transaction keeping the per-gatekeeper queue at every
// shard non-empty so node programs make progress under light load (§4.2).
type Nop struct {
	TS  core.Timestamp
	Seq uint64
}

// TxApplied acknowledges that the shard finished applying forwarded
// write-sets to its in-memory graph. With parallel conflict-aware apply,
// transactions inside one shard batch complete in arbitrary order, so the
// owning gatekeeper tracks outstanding applies as a count rather than a
// frontier; acks need no sequence numbers, and a batch coalesces into one
// counted ack per owning gatekeeper. Count <= 0 means 1 (an un-batched
// ack). TS is any member transaction's timestamp — only its epoch is
// meaningful (apply accounting is epoch-scoped).
type TxApplied struct {
	TS    core.Timestamp
	Shard int
	Count int
}

// Announce is the periodic gatekeeper→gatekeeper vector clock exchange
// (§3.3), sent every τ.
type Announce struct {
	TS core.Timestamp
}

// ProgHops carries node-program hops to one shard: the initial hops from
// the coordinating gatekeeper (which stamped the program, detects
// termination and gathers results) and the hops shards scatter to each
// other (§2.3). Each Hop names its own program and parameters.
//
// TS is the query's own fresh timestamp — its identity (QID) and its hold
// on the GC watermark. ReadTS is the timestamp the program READS at, always
// set by the coordinator and carried unchanged on every hop: equal to TS
// for a fresh read, or a past timestamp for a historical query (§4.5).
// Shards delay the batch until they have applied everything at or before
// ReadTS, build the snapshot visibility predicate from it, and reject it
// with ErrCodeStaleSnapshot when it has fallen behind the GC watermark.
type ProgHops struct {
	QID         core.ID
	TS          core.Timestamp
	ReadTS      core.Timestamp
	Coordinator transport.Addr
	Hops        []Hop
	// Trace is the obs trace ID (0 = untraced); append-only trailing
	// wire field, see TxForward.Trace.
	Trace uint64
}

// Hop is one pending vertex visit: the program to run there, and the
// parameters passed from the previous hop. ID is unique across the query —
// the coordinator matches each hop's spawn record against its consumption
// report, so termination detection is immune to delta reordering (a
// transient zero of a mere counter would end queries early when a
// consumption report overtakes the spawn report it answers).
//
// Origin is the index of the shard that spawned the hop, or -1 when the
// coordinating gatekeeper did (a query's initial hops). The executing shard
// uses it for heat attribution (§4.6): a hop whose Origin is another shard
// crossed a partition boundary — exactly the traffic heat-driven
// repartitioning tries to make local — and is weighted accordingly.
type Hop struct {
	ID      uint64
	Vertex  graph.VertexID
	Program string
	Params  []byte
	Origin  int
}

// Program error codes carried by ProgDelta.ErrCode and
// IndexResult.ErrCode, letting the coordinator surface typed errors across
// the wire (error strings alone cannot round-trip errors.Is).
const (
	// ErrCodeNone means Err (if non-empty) is an untyped program failure.
	ErrCodeNone = 0
	// ErrCodeStaleSnapshot means the query's read timestamp has fallen
	// behind the shard's GC watermark: the versions it would need may
	// already be collected, so the shard refuses to answer rather than
	// return wrong data (§4.5). Pin the snapshot or widen
	// HistoryRetention to keep reads this old alive.
	ErrCodeStaleSnapshot = 1
	// ErrCodeNoIndex means the lookup named a property key no secondary
	// index is configured for (weaver.Config.Indexes).
	ErrCodeNoIndex = 2
)

// Where is one predicate of an index query. Every index read is a
// conjunction of these: the planner (internal/plan) picks the shard set
// from its equality predicates and the shards evaluate the whole
// conjunction locally before replying. Op is one of the Op* comparison
// constants; every comparison is lexicographic over the property's string
// value.
type Where struct {
	Key   string
	Op    byte
	Value string
}

// Comparison operators for Where.Op. OpGe/OpLe are inclusive, OpGt/OpLt
// strict. An empty Value under an inequality operator is an unbounded
// side, not a comparison against the empty string.
const (
	OpEq byte = iota // property == Value
	OpGe             // property >= Value
	OpLe             // property <= Value
	OpGt             // property >  Value
	OpLt             // property <  Value
)

// Eq is the conjunction of an equality lookup: key == value.
func Eq(key, value string) []Where {
	return []Where{{Key: key, Op: OpEq, Value: value}}
}

// Between is the conjunction of an inclusive range lookup over [lo, hi]:
// an empty side is unbounded and contributes no predicate, and with both
// sides empty the single predicate key >= "" selects every vertex carrying
// the key.
func Between(key, lo, hi string) []Where {
	var ws []Where
	if lo != "" {
		ws = append(ws, Where{Key: key, Op: OpGe, Value: lo})
	}
	if hi != "" {
		ws = append(ws, Where{Key: key, Op: OpLe, Value: hi})
	}
	if ws == nil {
		ws = []Where{{Key: key, Op: OpGe}}
	}
	return ws
}

// IndexLookup asks one shard to evaluate a secondary-index query at a
// snapshot: the scatter half of a cluster-wide index lookup. The
// coordinating gatekeeper fans the same message out to the planned shard
// set (all shards on the broadcast fallback) and merges the IndexResult
// replies. ReadTS is the timestamp the lookup reads at — the shard delays
// evaluation until every transaction at or before it has applied (exactly
// the node-program readiness rule, §4.1), so a lookup can never observe a
// phantom from a concurrent writer, and rejects timestamps behind the GC
// watermark with ErrCodeStaleSnapshot.
type IndexLookup struct {
	QID    core.ID
	ReadTS core.Timestamp
	// Wheres is the predicate conjunction: the shard returns the vertices
	// matching EVERY predicate at ReadTS.
	Wheres []Where
	// Limit > 0 truncates the shard's reply to its first Limit matches in
	// ascending vertex order (the global result is the first N of the
	// merged sorted union, so per-shard prefixes suffice).
	Limit int
	Reply transport.Addr
	// Trace is the obs trace ID (0 = untraced).
	Trace uint64
}

// IndexResult is one shard's half of a scatter-gather index lookup: the
// vertices homed on that shard that matched at the read timestamp, or a
// typed error.
type IndexResult struct {
	QID      core.ID
	Shard    int
	Vertices []graph.VertexID
	Err      string
	ErrCode  int
	// Matched is the shard-local match count BEFORE limit truncation and
	// Scanned the number of candidate postings and probes the evaluation
	// touched — EXPLAIN's actual-cost columns.
	Matched int
	Scanned int
	// Trace echoes the lookup's obs trace ID (0 = untraced).
	Trace uint64
}

// ProgDelta reports execution progress from a shard to the coordinator:
// ConsumedIDs are the hops executed locally (with their whole local
// cascade), SpawnedIDs are new hops forwarded to other shards, Results
// collects the values returned by program visits.
type ProgDelta struct {
	QID         core.ID
	ConsumedIDs []uint64
	SpawnedIDs  []uint64
	Results     [][]byte
	Err         string
	ErrCode     int
	// Trace echoes the program's obs trace ID (0 = untraced);
	// append-only trailing wire field, see TxForward.Trace.
	Trace uint64
}

// ProgFinish tells shards the query terminated; per-vertex program state is
// garbage collected (§4.5).
type ProgFinish struct {
	QID core.ID
}

// GCReport broadcasts a gatekeeper's garbage-collection watermarks (§4.5).
// TS is the VERSION watermark: a timestamp known to happen-before every
// operation still in progress at that gatekeeper, held back further by
// pinned snapshots and the HistoryRetention window; shards collect reports
// from all gatekeepers and prune graph versions older than the pointwise
// minimum. A zero TS means "collect nothing" (retention window not aged).
// OracleTS is the ORACLE watermark — clock and in-flight operations only,
// NOT held by pins or retention: the dependency DAG must stay small under
// long-lived snapshots, and it safely can, because reads resolve
// visibility without the oracle (see shard visibility) — only
// transaction-transaction orders live in the DAG, and those are queried
// only while the transactions are in flight.
type GCReport struct {
	GK       int
	TS       core.Timestamp
	OracleTS core.Timestamp
}

// ShardGCReport is the shard half of the oracle GC handshake: TS is a
// timestamp pointwise at-or-below every transaction this shard has
// received or will receive but not yet applied (per-gatekeeper queue heads
// and frontiers, combined by pointwise minimum). Gatekeeper 0 folds these
// into the oracle watermark, so the dependency DAG never forgets the order
// of a transaction that some shard still has to execute — a
// committed-but-unapplied transaction is an ongoing operation in the §4.5
// sense, and pruning its ordering state would let shards disagree about
// queue-head order and wedge the apply pipeline. Zero TS means "hold
// everything" (a frontier not yet established).
type ShardGCReport struct {
	Shard int
	TS    core.Timestamp
}

// Epoch-barrier phases carried by EpochChange.Phase. The manager pauses
// gatekeepers first (stopping new commits), then orders every server into
// the new epoch; Phase distinguishes the two over the wire. The zero value
// is Enter.
const (
	// EpochPhaseEnter orders the receiver to advance into Epoch (and, for
	// gatekeepers, to resume paused traffic).
	EpochPhaseEnter uint8 = 0
	// EpochPhasePause orders a gatekeeper to stop admitting commits
	// before the epoch flip (the first half of the barrier).
	EpochPhasePause uint8 = 1
)

// EpochChange orders a server into a new epoch during reconfiguration
// (§4.3). The cluster manager imposes a barrier: servers ack, and the new
// epoch's traffic starts only after all acks. Phase selects the barrier
// half, From is the manager address acks should go to.
type EpochChange struct {
	Epoch uint64
	Phase uint8
	From  transport.Addr
}

// EpochAck confirms a server has entered (or paused for) the epoch.
type EpochAck struct {
	Epoch uint64
	From  transport.Addr
	Phase uint8
}

// EpochQuery asks the cluster manager for the current agreed epoch and
// failure set. Standby gatekeepers poll it to detect a takeover
// opportunity; restarting servers use it to join at the right epoch
// instead of a stale boot-time default.
type EpochQuery struct {
	ID   uint64
	From transport.Addr
	// Boot marks a query sent by a member process at startup. A boot
	// query from a member the manager has seen alive means the process
	// died and came back faster than the failure detector's window —
	// the manager must still run a rejoin barrier, or the member's
	// reset FIFO streams stay misaligned with the survivors forever.
	Boot bool
}

// EpochInfo answers an EpochQuery: the manager's current epoch and the
// member addresses currently considered failed (no heartbeat inside the
// timeout).
type EpochInfo struct {
	ID     uint64
	Epoch  uint64
	Failed []transport.Addr
}

// Heartbeat is the liveness signal servers send to the cluster manager.
type Heartbeat struct {
	From transport.Addr
}
