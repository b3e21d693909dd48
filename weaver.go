// Package weaver is a distributed, transactional property-graph database
// built on refinable timestamps, reproducing the system described in
// "Weaver: A High-Performance, Transactional Graph Database Based on
// Refinable Timestamps" (Dubey, Hill, Escriva, Sirer — VLDB 2016).
//
// A Cluster assembles the full system in one process: a bank of gatekeepers
// (vector-clock timestamping, transaction execution on the backing store),
// shard servers holding the in-memory multi-version graph, a timeline
// oracle refining concurrent timestamps, and a transactional backing store.
// Clients execute strictly serializable read-write transactions (Tx) and
// run node programs — traversal-style read-only queries that see a
// consistent snapshot of the graph at their timestamp.
//
// # Execution pipeline
//
// A committed transaction flows through three stages:
//
//  1. Commit (gatekeeper): a refinable timestamp is stamped, the write-set
//     is validated and applied to the transactional backing store (OCC),
//     and timestamp order is reconciled with commit order on conflicting
//     vertices — via the timeline oracle when vector clocks are
//     inconclusive (§4.2). When Tx.Commit returns, the transaction is
//     durable and totally ordered.
//  2. Forward: the write-set is split by home shard and streamed to the
//     involved shards over per-shard FIFO channels; uninvolved shards
//     receive a NOP advancing their frontier.
//  3. Apply (shard): each shard's event loop executes forwarded
//     transactions against its in-memory multi-version graph, one at a
//     time, always the earliest executable head across its per-gatekeeper
//     queues (§4.1–4.2); throughput scales by adding shards. Shards
//     acknowledge each applied transaction to its gatekeeper; Quiesce
//     blocks until every forwarded write-set has been acknowledged — an
//     apply fence for benchmarks and tests that read shard state.
//
// Node programs wait until the shard has executed everything at or before
// their timestamp, then read the multi-version graph at that timestamp, on
// the same event loop, between transactions.
//
// # Durability, checkpoints, and bulk ingest
//
// Config.WALPath makes the backing store durable: commits are written to a
// group-committed write-ahead log (concurrent commits share fsyncs) before
// they are acknowledged. Cluster.Checkpoint snapshots the store into
// segmented, checksummed files (internal/snapshot) and truncates the log,
// so reopening replays only the tail written since — Cluster.RecoveryStats
// reports the bounded replay. A crash mid-checkpoint is safe: a torn
// snapshot fails validation and recovery falls back to the previous
// snapshot plus its complete log.
//
// Cluster.BulkLoad populates a cluster wholesale, bypassing the
// per-transaction commit path: the edge list streams through the LDG
// partitioner for locality-aware placement (when Config.Directory is a
// *partition.Mapped), per-shard segment builders encode vertex records on
// a GOMAXPROCS-sized worker pool, and the segments install directly into
// the backing store and the shard graphs. One fresh timestamp stamps the
// whole load and every gatekeeper clock observes it, so all later
// transactions order after the load. On a durable cluster BulkLoad ends
// with an automatic Checkpoint — crash-safe ingest without a WAL record
// per commit.
//
// # Online repartitioning
//
// Shards track per-vertex heat (writes, node-program visits, cross-shard
// hops, decayed over time; Cluster.Heat). Cluster.MigrateBatch re-homes any
// number of vertices under one gatekeeper pause — commit the re-homed
// records in one backing-store transaction, move each vertex's full
// version history to the target, evict the source copies, repoint the
// directory — and a background rebalancer (Config.RebalanceInterval)
// feeds hot vertices through the LDG streaming partitioner to keep
// placement tracking the workload (§4.6).
//
// # Time-travel reads
//
// Because the graph is multi-versioned, any read-only query can run at a
// past timestamp while writes proceed (§4.5): Cluster.SnapshotTS mints a
// pinned, cluster-stable snapshot timestamp held against version GC until
// closed; Client.At wraps any timestamp from this cluster in a ReadClient
// whose node programs read the graph exactly as of that timestamp.
// Config.HistoryRetention keeps unpinned timestamps readable for a
// wall-clock window; reads behind the GC watermark fail with
// ErrStaleSnapshot, never wrong data. See timetravel.go.
//
// # Secondary indexes
//
// Config.Indexes declares property keys each shard indexes with a
// multiversion inverted index (internal/index): postings carry
// create/delete timestamps exactly like graph versions, so
// Client.Lookup/LookupRange answer "all vertices where key=value" (or a
// value range) as a strictly serializable snapshot read — and, through
// Client.At, as of any retained past timestamp. RunProgramWhere starts a
// node program from an index selector at one consistent snapshot. Index
// maintenance rides the transaction apply path; GC trims postings at the
// watermark that trims graph history, migration moves them with the version
// chains, and bulk ingest and recovery rebuild them from records. Postings stay
// resident when demand paging evicts a cold vertex's graph history —
// lookups answer for paged-out vertices without faulting them in, so
// Config.MaxShardVertices bounds graph memory only.
//
// Quick start:
//
//	c, _ := weaver.Open(weaver.Config{Gatekeepers: 2, Shards: 2})
//	defer c.Close()
//	cl := c.Client()
//	_, err := cl.RunTx(func(tx *weaver.Tx) error {
//	    tx.CreateVertex("alice")
//	    tx.CreateVertex("bob")
//	    e := tx.CreateEdge("alice", "bob")
//	    tx.SetEdgeProperty("alice", e, "kind", "follows")
//	    return nil
//	})
//	// ...
//	ids, _, _ := cl.Traverse("alice", "", "", 0)
package weaver

import (
	"errors"
	"fmt"
	"log"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"weaver/internal/cluster"
	"weaver/internal/core"
	"weaver/internal/deploy"
	"weaver/internal/gatekeeper"
	"weaver/internal/graph"
	"weaver/internal/index"
	"weaver/internal/kvstore"
	"weaver/internal/nodeprog"
	"weaver/internal/obs"
	"weaver/internal/oracle"
	"weaver/internal/partition"
	"weaver/internal/shard"
	"weaver/internal/transport"
)

// Re-exported identifier types; applications use these to name graph
// objects.
type (
	// VertexID names a vertex, e.g. "user/42".
	VertexID = graph.VertexID
	// EdgeID names an edge. Inside an uncommitted transaction, edge IDs
	// returned by Tx.CreateEdge are placeholders rewritten at commit.
	EdgeID = graph.EdgeID
	// Timestamp is a refinable timestamp (vector clock + epoch).
	Timestamp = core.Timestamp
)

// ErrConflict is returned when a transaction lost a race with a concurrent
// conflicting transaction; re-running it (fresh reads) will usually
// succeed. Client.RunTx does this automatically.
var ErrConflict = gatekeeper.ErrConflict

// ErrInvalid wraps semantic transaction errors (creating an existing
// vertex, deleting a missing edge, …). Retrying will not help.
var ErrInvalid = gatekeeper.ErrInvalid

// ErrNoIndex is returned by Lookup/LookupRange/RunProgramWhere when the
// named property key has no secondary index (Config.Indexes). Match with
// errors.Is.
var ErrNoIndex = gatekeeper.ErrNoIndex

// IndexSpec declares one secondary property index (Config.Indexes): a
// per-shard multiversion inverted index over the named vertex property
// key, serving equality lookups and ordered range scans at any retained
// snapshot. See Client.Lookup and the package documentation.
type IndexSpec = index.Spec

// Config describes an in-process Weaver cluster. Its server settings
// convert to a deploy.Spec (Config.spec), from which Open builds every role
// through the same constructors cmd/weaverd builds one role with.
type Config struct {
	// Gatekeepers is the number of timestamping servers (≥1).
	Gatekeepers int
	// Shards is the number of graph partition servers (≥1).
	Shards int
	// AnnouncePeriod is τ, the vector-clock exchange period between
	// gatekeepers (§3.3). Default 1ms. Smaller τ orders more transaction
	// pairs proactively; larger τ shifts work to the timeline oracle
	// (§6.5, Fig 14).
	AnnouncePeriod time.Duration
	// NopPeriod is how often gatekeepers send NOPs to shards, bounding
	// node-program delay (§4.2). Default 500µs.
	NopPeriod time.Duration
	// GCPeriod is the version garbage-collection cadence (§4.5). Default:
	// disabled — the full multi-version history is kept, so historical
	// queries (Client.At) answer at any past timestamp.
	GCPeriod time.Duration
	// HistoryRetention keeps superseded versions readable for this
	// wall-clock window before garbage collection may reclaim them: a
	// historical read (Client.At) at any timestamp minted within the
	// window is guaranteed to succeed, and a read behind the GC
	// watermark fails with ErrStaleSnapshot instead of returning wrong
	// data. Pinned snapshots (Cluster.SnapshotTS) hold the watermark
	// regardless of this window. Only meaningful with GCPeriod > 0
	// (without it everything is kept forever).
	HistoryRetention time.Duration
	// ProgTimeout bounds node program execution. Default 30s.
	ProgTimeout time.Duration
	// WALPath, when set, makes the backing store durable: committed
	// transactions are logged (group-committed: concurrent commits share
	// fsyncs) and the store recovers on reopen from the newest checkpoint
	// snapshot plus the WAL tail — see Cluster.Checkpoint. Snapshot and
	// WAL-era files are created next to this path.
	WALPath string
	// Directory overrides vertex placement (default: hash partitioning;
	// see internal/partition for the LDG streaming partitioner, §4.6).
	Directory partition.Directory
	// HeartbeatTimeout, when positive, runs the cluster manager (§4.3):
	// servers send heartbeats and are automatically recovered after this
	// much silence, behind the same EpochChange/EpochAck barrier a weaverd
	// deployment runs. Zero disables fault tolerance machinery.
	HeartbeatTimeout time.Duration
	// OracleReplicas chain-replicates the timeline oracle across this
	// many replicas (§3.4); 0 or 1 runs it unreplicated.
	OracleReplicas int
	// MaxShardVertices enables demand paging (§6.1): each shard keeps at
	// most this many resident vertex histories, paging cold vertices out
	// once the GC watermark passes them and faulting them back in from
	// the backing store on access. Requires GCPeriod. 0 = unlimited.
	MaxShardVertices int
	// RebalanceInterval, when positive, runs the background heat-driven
	// rebalancer (§4.6): every interval the hottest vertices across all
	// shards are re-placed with the LDG streaming partitioner against
	// their live adjacency and migrated in one batched pause
	// (Cluster.MigrateBatch). Requires Config.Directory to be assignable
	// (see NewMappedDirectory); Open fails otherwise. Zero disables the
	// loop — Cluster.RebalanceOnce still runs a cycle on demand.
	RebalanceInterval time.Duration
	// RebalanceSlack is the LDG capacity slack factor for rebalancing
	// (e.g. 0.1 lets each shard hold 10% above the balanced share).
	// 0 = 0.1.
	RebalanceSlack float64
	// TraceSample samples one in N committed transactions for
	// end-to-end span tracing (gatekeeper queue → timestamp mint →
	// oracle refinement → wire transfer → shard apply). 0 = 64;
	// 1 traces every transaction (tests). Finished traces land in the
	// slow-op ring (Cluster.SlowOps) and the weaverd metrics endpoint.
	TraceSample int
	// Indexes declares secondary property indexes: for each listed
	// vertex-property key, every shard maintains a multiversion inverted
	// index over its partition, kept exactly in step with the graph by
	// the transaction apply path. Client.Lookup/LookupRange answer
	// equality and ordered range queries over these keys at a fresh
	// snapshot (strictly serializable — never a phantom from a
	// concurrent writer) or, via Client.At, at any retained past
	// timestamp; RunProgramWhere starts node programs from an index
	// selector. Index postings are garbage-collected, migrated, paged,
	// bulk-loaded and recovered alongside the graph versions they mirror.
	Indexes []IndexSpec
}

func (c Config) withDefaults() (Config, error) {
	if c.Gatekeepers <= 0 {
		c.Gatekeepers = 1
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	seen := make(map[string]bool, len(c.Indexes))
	for _, sp := range c.Indexes {
		if sp.Key == "" {
			return c, errors.New("weaver: Config.Indexes: empty property key")
		}
		if seen[sp.Key] {
			return c, fmt.Errorf("weaver: Config.Indexes: duplicate key %q", sp.Key)
		}
		seen[sp.Key] = true
	}
	return c, nil
}

// spec extracts the settings the server constructors consume.
func (c Config) spec() deploy.Spec {
	return deploy.Spec{
		Gatekeepers:      c.Gatekeepers,
		Shards:           c.Shards,
		AnnouncePeriod:   c.AnnouncePeriod,
		NopPeriod:        c.NopPeriod,
		GCPeriod:         c.GCPeriod,
		HistoryRetention: c.HistoryRetention,
		HeartbeatTimeout: c.HeartbeatTimeout,
		ProgTimeout:      c.ProgTimeout,
		MaxShardVertices: c.MaxShardVertices,
		Indexes:          c.Indexes,
		WALPath:          c.WALPath,
		OracleReplicas:   c.OracleReplicas,
	}
}

// Cluster is a fully assembled in-process Weaver deployment. Its servers
// talk only through the fabric, which frames every message and delivers a
// decoded copy: a multi-process deployment's semantics minus the sockets.
type Cluster struct {
	cfg       Config
	fabric    *transport.Fabric
	store     *kvstore.Store  // the embedded backing store
	kv        kvstore.Backing // store, as the handle servers are built with
	orc       oracle.Client
	reg       *nodeprog.Registry
	dir       partition.Directory
	mgr       *cluster.Manager
	obs       *obs.Registry
	baseEpoch uint64

	// Client-side metric handles, resolved once (nil-safe when metrics
	// are disabled).
	clientTxDur     *obs.Histogram
	clientTxRetries *obs.Counter

	serversMu sync.RWMutex
	gks       []*gatekeeper.Gatekeeper
	shards    []*shard.Shard

	nextClient atomic.Uint64
	closeOnce  sync.Once
	closeErr   error
	closed     atomic.Bool

	// reconfigMu serializes epoch reconfigurations (Manager.Recover)
	// against the stop-the-world fence of bulk loads and migration batches
	// (Cluster.fenced). Without it a recovery can replace c.shards[i]
	// between a fence's server snapshot and its in-memory install, so the
	// operation evicts from and installs into a dead shard instance while
	// readers route to the fresh one — an acknowledged write a reader can
	// no longer see.
	reconfigMu sync.Mutex

	// testHookMigrateSnapshotted, when non-nil, runs inside every fence
	// once it holds the reconfig lock over a verified server snapshot —
	// exactly the window a concurrent recovery used to corrupt.
	testHookMigrateSnapshotted func()

	rebal rebalState
}

// Open builds and starts a cluster.
func Open(cfg Config) (*Cluster, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, obs: obs.New(obs.Config{TraceSample: cfg.TraceSample})}
	c.clientTxDur = c.obs.LatencyHistogram("weaver_client_tx_seconds")
	c.clientTxRetries = c.obs.Counter("weaver_client_tx_retries_total")
	c.fabric = transport.NewFabric().WithWireMetrics(transport.NewWireMetrics(c.obs))
	st, orc, err := c.cfg.spec().NewStore(c.obs)
	if err != nil {
		return nil, fmt.Errorf("weaver: open backing store: %w", err)
	}
	c.store, c.kv, c.orc = st, kvstore.AsBacking(st), orc
	c.reg = nodeprog.NewRegistry()
	c.dir = cfg.Directory
	if c.dir == nil {
		c.dir = partition.NewHash(cfg.Shards)
	}
	if cfg.RebalanceInterval > 0 {
		if _, ok := c.dir.(*partition.Mapped); !ok {
			c.kv.Close()
			return nil, errors.New("weaver: Config.RebalanceInterval requires an assignable directory (see NewMappedDirectory)")
		}
	}

	if cfg.WALPath != "" {
		// Epoch continuity across restarts (§4.3): every timestamp of
		// the reopened cluster must order after every pre-restart one,
		// so resume one epoch above the last persisted.
		if raw, _, ok := c.kv.GetVersioned(epochKey); ok && len(raw) == 8 {
			for i := 0; i < 8; i++ {
				c.baseEpoch = c.baseEpoch<<8 | uint64(raw[i])
			}
		}
		c.baseEpoch++
		buf := make([]byte, 8)
		for i := 0; i < 8; i++ {
			buf[i] = byte(c.baseEpoch >> (56 - 8*i))
		}
		tx := c.kv.Begin()
		tx.Put(epochKey, buf)
		if err := tx.Commit(); err != nil {
			return nil, fmt.Errorf("weaver: persist epoch: %w", err)
		}
	}
	// Durable reopen: one scan over the vertex keyspace decodes every
	// record once, rebuilds locality-aware placements (BulkLoad's LDG
	// assignments, RebalanceLDG moves — the backing store doubles as the
	// authoritative vertex→shard directory, §3.2, and hop routing must
	// agree with where each vertex recovers), and buckets records per
	// shard for Shard.InstallRecovered — instead of every shard re-scanning
	// and re-decoding the full keyspace for its own partition. Tombstones
	// are bucketed too: they load nothing but raise the recovery horizon.
	var perShard [][]*graph.VertexRecord
	if cfg.WALPath != "" {
		perShard = make([][]*graph.VertexRecord, cfg.Shards)
		md, _ := c.dir.(*partition.Mapped)
		err := c.kv.ScanPrefix(graph.VertexKeyPrefix, func(_ string, data []byte) {
			rec, err := graph.DecodeRecord(data)
			if err != nil {
				return
			}
			if md != nil && !rec.Deleted {
				md.Assign(rec.ID, rec.Shard)
			}
			if rec.Shard >= 0 && rec.Shard < cfg.Shards {
				perShard[rec.Shard] = append(perShard[rec.Shard], rec)
			}
		})
		if err != nil {
			c.kv.Close()
			return nil, fmt.Errorf("weaver: recover shards: %w", err)
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := c.newShard(i, c.baseEpoch)
		if perShard != nil {
			sh.InstallRecovered(perShard[i])
		}
		c.shards = append(c.shards, sh)
	}
	for i := 0; i < cfg.Gatekeepers; i++ {
		c.gks = append(c.gks, c.newGatekeeper(i, c.baseEpoch))
	}
	for _, sh := range c.shards {
		sh.Start()
	}
	for _, gk := range c.gks {
		gk.Start()
	}
	// Commit→apply lag, summed across gatekeepers, read at scrape time.
	c.obs.GaugeFunc("weaver_gk_apply_lag", func() int64 {
		gks, _ := c.servers()
		var lag int64
		for _, gk := range gks {
			lag += gk.ApplyLag()
		}
		return lag
	})
	if cfg.HeartbeatTimeout > 0 {
		c.mgr = c.cfg.spec().NewManager(0, c.baseEpoch, c.fabric.Endpoint(cluster.Addr), nil, &c.reconfigMu, c.restart)
		c.mgr.Start()
	}
	if cfg.RebalanceInterval > 0 {
		c.startRebalancer()
	}
	return c, nil
}

// newShard constructs (without starting) the shard server at index i.
func (c *Cluster) newShard(i int, epoch uint64) *shard.Shard {
	return c.cfg.spec().NewShard(i, epoch, c.fabric.Endpoint(transport.ShardAddr(i)), c.kv, c.orc, c.reg, c.dir, c.obs)
}

// newGatekeeper constructs (without starting) the gatekeeper at index i.
func (c *Cluster) newGatekeeper(i int, epoch uint64) *gatekeeper.Gatekeeper {
	return c.cfg.spec().NewGatekeeper(i, epoch, c.fabric.Endpoint(transport.GatekeeperAddr(i)), c.kv, c.orc, c.dir, c.obs)
}

// restart is the manager's rebirth callback, run inside the epoch barrier
// under reconfigMu. A dead gatekeeper restarts its clock at zero in the new
// epoch, keeping all new timestamps after all old ones; a dead shard's
// fresh instance recovers its partition from the backing store and rejoins
// on the same address (§4.3). A store that cannot be read leaves the dead
// shard in place: still silent, the detector recovers it again.
func (c *Cluster) restart(isGK bool, i int, epoch uint64) {
	if isGK {
		gk := c.newGatekeeper(i, epoch)
		gk.Start()
		c.serversMu.Lock()
		c.gks[i] = gk
		c.serversMu.Unlock()
		return
	}
	sh := c.newShard(i, epoch)
	if _, err := sh.Recover(); err != nil {
		log.Printf("weaver: restart shard %d at epoch %d: %v", i, epoch, err)
		return
	}
	sh.Start()
	c.serversMu.Lock()
	c.shards[i] = sh
	c.serversMu.Unlock()
}

// CrashShard stops shard i ungracefully (failure injection). With the
// cluster manager enabled, it is detected and recovered automatically; or
// call RecoverNow for deterministic tests.
func (c *Cluster) CrashShard(i int) {
	c.shardAt(i).Stop()
}

// CrashGatekeeper stops gatekeeper i ungracefully (failure injection).
func (c *Cluster) CrashGatekeeper(i int) {
	c.gkAt(i).Stop()
}

// RecoverNow runs the §4.3 reconfiguration for the named server
// immediately, without waiting for heartbeat timeouts. Requires the
// cluster manager (Config.HeartbeatTimeout > 0).
func (c *Cluster) RecoverNow(addr transport.Addr) error {
	if c.mgr == nil {
		return errors.New("weaver: cluster manager disabled (set HeartbeatTimeout)")
	}
	return c.mgr.Recover(addr)
}

// ShardAddr and GatekeeperAddr name servers for RecoverNow.
var (
	ShardAddr      = transport.ShardAddr
	GatekeeperAddr = transport.GatekeeperAddr
)

// errOracleNotReplicated gates the oracle fault-injection surface.
var errOracleNotReplicated = errors.New("weaver: timeline oracle is not replicated (set Config.OracleReplicas > 1)")

// FailOracleReplica kills one replica of the chain-replicated timeline
// oracle (failure injection). The chain relinks around it: ordering
// queries and assignments keep working as long as one replica is live.
func (c *Cluster) FailOracleReplica(i int) error {
	rep, ok := c.orc.(*oracle.Replicated)
	if !ok {
		return errOracleNotReplicated
	}
	rep.FailReplica(i)
	return nil
}

// HealOracleReplica rejoins a previously failed oracle replica at the
// tail of the chain, transferring the live tail's full DAG state to it
// (§4.3) — decisions made while it was down are preserved byte-for-byte.
func (c *Cluster) HealOracleReplica(i int) error {
	rep, ok := c.orc.(*oracle.Replicated)
	if !ok {
		return errOracleNotReplicated
	}
	return rep.HealReplica(i)
}

// OracleReplicasLive reports how many oracle chain replicas are serving.
// Returns 1 for an unreplicated oracle.
func (c *Cluster) OracleReplicasLive() int {
	if rep, ok := c.orc.(*oracle.Replicated); ok {
		return rep.LiveReplicas()
	}
	return 1
}

// Quiesce blocks until every transaction committed so far has been applied
// by every involved shard's in-memory graph, or the timeout expires. Commit
// alone already guarantees durability and strict serializability; Quiesce
// is the apply fence for code that inspects shard state directly (tests,
// benchmarks, Graph()-level checks) or wants to measure apply throughput.
func (c *Cluster) Quiesce(timeout time.Duration) error {
	gks, _ := c.servers()
	return quiesce(gks, time.Now().Add(timeout))
}

// quiesce waits until every write-set gks forwarded has been applied. A
// deadline already past still passes a gatekeeper with nothing outstanding.
func quiesce(gks []*gatekeeper.Gatekeeper, deadline time.Time) error {
	for _, gk := range gks {
		if err := gk.Quiesce(time.Until(deadline)); err != nil {
			return err
		}
	}
	return nil
}

// pauseIntake pauses every gatekeeper — no new transactions or node
// programs — and returns the paused instances with the call that resumes
// them. Checkpoint needs only this; fenced builds on it.
func (c *Cluster) pauseIntake() ([]*gatekeeper.Gatekeeper, func()) {
	gks, _ := c.servers()
	for _, gk := range gks {
		gk.Pause()
	}
	return gks, func() {
		for _, gk := range gks {
			gk.Resume()
		}
	}
}

// fenced is the one stop-the-world fence (bulk loads, migration batches):
// body runs with every gatekeeper paused, every forwarded write-set applied
// and every node program finished, under the reconfiguration lock, on the
// server instances live at that moment — an epoch recovery can never swap a
// shard out from under body's in-memory installs.
//
// The drain runs WITHOUT the lock: an apply forwarded to a crashed shard is
// written off only by the recovery's new epoch, so a drain holding the lock
// would wait out its own timeout. A recovery that slips in may replace a
// gatekeeper, leaving the pause on a dead instance; the fence starts over.
func (c *Cluster) fenced(body func(gks []*gatekeeper.Gatekeeper, shards []*shard.Shard) error) error {
	for {
		gks, resume := c.pauseIntake()
		err := drain(gks)
		c.reconfigMu.Lock()
		live, shards := c.servers()
		current := slices.Equal(gks, live)
		if current && err == nil {
			if h := c.testHookMigrateSnapshotted; h != nil {
				h()
			}
			err = body(gks, shards)
		}
		c.reconfigMu.Unlock()
		resume()
		if current {
			return err
		}
	}
}

// drain waits, for at most 30 s, until everything the paused gatekeepers
// forwarded has been applied and the reads they coordinate have finished,
// so a fence never changes the graph under a queued write-set or a running
// traversal.
func drain(gks []*gatekeeper.Gatekeeper) error {
	deadline := time.Now().Add(30 * time.Second)
	if err := quiesce(gks, deadline); err != nil {
		return fmt.Errorf("weaver: fence: %w", err)
	}
	for {
		busy := 0
		for _, gk := range gks {
			busy += gk.OutstandingPrograms()
		}
		if busy == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("weaver: fence: %d node programs still running", busy)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Epoch returns the cluster's current epoch.
func (c *Cluster) Epoch() uint64 {
	if c.mgr == nil {
		return c.baseEpoch
	}
	return c.mgr.Epoch()
}

// epochKey persists the cluster epoch in the backing store.
const epochKey = "meta/epoch"

// Close stops every server and releases the backing store. It is
// idempotent and safe for concurrent use: the shutdown runs exactly once
// and every caller observes its result.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		// The rebalancer stops first, and stopRebalancer waits out any
		// in-flight migration batch, so a batch never runs against
		// half-stopped gatekeepers.
		c.stopRebalancer()
		if c.mgr != nil {
			c.mgr.Stop()
		}
		gks, shards := c.servers()
		for _, gk := range gks {
			gk.Stop()
		}
		for _, sh := range shards {
			sh.Stop()
		}
		c.closeErr = c.kv.Close()
	})
	return c.closeErr
}

// Registry exposes the node-program registry so applications can register
// custom programs (do this before running them).
func (c *Cluster) Registry() *nodeprog.Registry { return c.reg }

// Directory exposes the vertex placement directory.
func (c *Cluster) Directory() partition.Directory { return c.dir }

// Client returns a client bound to one gatekeeper, chosen round-robin.
// Clients are not safe for concurrent use, but Client itself is; create one
// client per goroutine (they are cheap).
func (c *Cluster) Client() *Client {
	n := c.nextClient.Add(1) - 1
	return &Client{c: c, idx: int(n % uint64(c.cfg.Gatekeepers))}
}

// ClientAt returns a client bound to a specific gatekeeper.
func (c *Cluster) ClientAt(gk int) (*Client, error) {
	if gk < 0 || gk >= c.cfg.Gatekeepers {
		return nil, errors.New("weaver: no such gatekeeper")
	}
	return &Client{c: c, idx: gk}, nil
}

// servers snapshots the live server instances, which failover replaces.
func (c *Cluster) servers() ([]*gatekeeper.Gatekeeper, []*shard.Shard) {
	c.serversMu.RLock()
	defer c.serversMu.RUnlock()
	return slices.Clone(c.gks), slices.Clone(c.shards)
}

// gkAt returns the current gatekeeper instance at index i.
func (c *Cluster) gkAt(i int) *gatekeeper.Gatekeeper {
	c.serversMu.RLock()
	defer c.serversMu.RUnlock()
	return c.gks[i]
}

// shardAt returns the current shard instance at index i.
func (c *Cluster) shardAt(i int) *shard.Shard {
	c.serversMu.RLock()
	defer c.serversMu.RUnlock()
	return c.shards[i]
}

// Stats aggregates activity counters across the cluster.
type Stats struct {
	Gatekeepers []gatekeeper.Stats
	Shards      []shard.Stats
	Oracle      oracle.Stats
	Store       kvstore.Stats
	Rebalance   RebalanceStats
}

// Stats returns a snapshot of all counters.
func (c *Cluster) Stats() Stats {
	st := Stats{Oracle: c.orc.Stats(), Store: c.kv.Stats(), Rebalance: c.rebalanceStats()}
	gks, shards := c.servers()
	for _, gk := range gks {
		st.Gatekeepers = append(st.Gatekeepers, gk.Stats())
	}
	for _, sh := range shards {
		st.Shards = append(st.Shards, sh.Stats())
	}
	return st
}

// TotalAnnounces sums gatekeeper announce messages (Fig 14's proactive
// coordination metric).
func (s Stats) TotalAnnounces() uint64 {
	var n uint64
	for _, g := range s.Gatekeepers {
		n += g.Announces
	}
	return n
}

// TotalOracleMessages sums timeline-oracle requests (Fig 14's reactive
// coordination metric).
func (s Stats) TotalOracleMessages() uint64 {
	return s.Oracle.Queries + s.Oracle.Assigns
}
