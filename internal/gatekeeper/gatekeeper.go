// Package gatekeeper implements Weaver's gatekeeper servers (§3.3, §4.2),
// the proactive half of refinable timestamps. A gatekeeper:
//
//   - stamps every transaction and node program with a vector timestamp
//     from its local clock, with no cross-server coordination;
//   - announces its clock to the other gatekeepers every τ, establishing
//     the happens-before partial order that resolves most transaction
//     pairs without the timeline oracle;
//   - executes read-write transactions against the transactional backing
//     store, enforcing that timestamp order agrees with backing-store
//     commit order on conflicting vertices (the per-vertex last-update
//     timestamp check of §4.2, registering refined orders with the oracle
//     for concurrent pairs);
//   - forwards committed write-sets to the involved shards over FIFO
//     (sequence-numbered) channels, and emits periodic NOPs so every shard
//     queue stays non-empty (§4.2);
//   - coordinates reads — node programs and index lookups, each at a fresh
//     or a caller-chosen historical timestamp (prog.go, lookup.go): tracks
//     outstanding hops and scatter rounds, gathers results, and triggers
//     program-state garbage collection on completion (§4.5).
package gatekeeper

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"weaver/internal/cluster"
	"weaver/internal/core"
	"weaver/internal/kvstore"
	"weaver/internal/obs"
	"weaver/internal/oracle"
	"weaver/internal/partition"
	"weaver/internal/plan"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// ErrConflict is returned by CommitTx when the backing store detected a
// conflicting concurrent transaction; the client should re-run the whole
// transaction (fresh reads, fresh commit).
var ErrConflict = errors.New("gatekeeper: transaction conflict, retry")

// ErrInvalid wraps semantic transaction failures (e.g. deleting an already
// deleted vertex), which abort on the backing store (§4.2).
var ErrInvalid = errors.New("gatekeeper: invalid transaction")

// ErrStopped is returned after Stop.
var ErrStopped = errors.New("gatekeeper: stopped")

// ReadCheck records one client read for commit-time validation: the
// backing-store key and the version the client observed.
type ReadCheck struct {
	Key     string
	Version uint64
}

// Config parameterizes a gatekeeper.
type Config struct {
	// ID is this gatekeeper's index in [0, NumGatekeepers).
	ID int
	// NumGatekeepers sets the vector clock width.
	NumGatekeepers int
	// NumShards sets the shard fan-out for NOPs.
	NumShards int
	// Epoch is the starting epoch (bumped by the cluster manager, §4.3).
	Epoch uint64
	// AnnouncePeriod is τ, the vector clock exchange period (§3.3).
	AnnouncePeriod time.Duration
	// NopPeriod bounds node-program delay under light load (§4.2).
	NopPeriod time.Duration
	// GCPeriod is how often GC watermarks are broadcast; 0 disables GC
	// (retain full multi-version history, §4.5).
	GCPeriod time.Duration
	// HistoryRetention, when positive, lags this gatekeeper's GC
	// watermark reports by the given wall-clock window: a version stays
	// collectable only once it has been superseded for at least this
	// long. Because every gatekeeper lags its own report and shards prune
	// at the pointwise minimum over all reports, any timestamp minted by
	// any gatekeeper within the window is guaranteed at-or-after the
	// cluster watermark — historical reads inside the window always pass
	// the shards' staleness check. Zero reports the live clock (no
	// retention beyond in-flight operations and pinned snapshots).
	HistoryRetention time.Duration
	// ProgTimeout bounds node-program completion waits. 0 = 30s.
	ProgTimeout time.Duration
	// HeartbeatPeriod, when positive, sends liveness beats to the
	// cluster manager (§4.3).
	HeartbeatPeriod time.Duration
	// IndexedKeys declares the property keys carrying secondary indexes
	// (weaver.Config.Indexes, identical across the cluster). The commit
	// path publishes value-presence markers for them (internal/plan) and
	// the query planner prunes lookup scatter with the marker catalog.
	// Empty disables both: no marker upkeep, every lookup broadcasts —
	// exactly the pre-planner behavior.
	IndexedKeys []string
	// Obs is the metrics/tracing registry. Nil disables observability
	// (every handle no-ops).
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.AnnouncePeriod <= 0 {
		c.AnnouncePeriod = time.Millisecond
	}
	if c.NopPeriod <= 0 {
		c.NopPeriod = 500 * time.Microsecond
	}
	if c.ProgTimeout <= 0 {
		c.ProgTimeout = 30 * time.Second
	}
	return c
}

// Stats counts gatekeeper activity; Announces and Nops feed the Fig 14
// coordination-overhead experiment.
type Stats struct {
	TxCommitted     uint64
	TxConflicts     uint64
	TxInvalid       uint64
	TxRetries       uint64
	TxApplied       uint64 // shard apply acknowledgements received
	ApplyPending    uint64 // forwarded write-sets not yet acknowledged
	Pauses          uint64 // intake pauses (epoch barriers, bulk loads, migration batches)
	Announces       uint64
	Nops            uint64
	ProgsStarted    uint64
	ProgsFinished   uint64
	LookupsStarted  uint64 // secondary-index lookups coordinated
	LookupsFinished uint64
	OracleAssigns   uint64
}

// maxCommitRetries bounds CommitTx's internal timestamp-order retries.
const maxCommitRetries = 16

// coordinatorHopBit marks hop IDs minted by a gatekeeper coordinator, so
// they never collide with shard-minted IDs (which carry the shard index in
// the high bits).
const coordinatorHopBit = uint64(1) << 63

// pinnedSnapshot is one refcounted GC pin (PinSnapshot/Unpin).
type pinnedSnapshot struct {
	ts   core.Timestamp
	refs int
}

// retainSample is one (wall time, clock) observation in the retention log.
type retainSample struct {
	at time.Time
	ts core.Timestamp
}

// Gatekeeper is one timeline-coordinator front-end server.
type Gatekeeper struct {
	cfg Config
	ep  transport.Endpoint
	kv  kvstore.Backing
	orc oracle.Client
	dir partition.Directory
	m   obsMetrics

	// testHookValidated, when non-nil, runs inside tryCommit between
	// ReadCheck validation and the record loads: the window a concurrent
	// writer used to turn a conflict into ErrInvalid.
	testHookValidated func()

	// planner turns index queries into pruned scatter plans; indexed is
	// the IndexedKeys set; markerHave is the positive-only presence-marker
	// cache (planner.go).
	planner    *plan.Planner
	indexed    map[string]struct{}
	markerMu   sync.RWMutex
	markerHave map[string]struct{}

	mu    sync.Mutex
	clock *core.VectorClock
	seq   *transport.Sequencer
	// awaiting holds the shards that have not yet answered this
	// gatekeeper's hello; sendNops holds the NOP stream back until it is
	// empty.
	awaiting map[transport.Addr]struct{}
	// reads holds every read in flight — node programs and index-lookup
	// rounds — keyed by the read's own fresh timestamp (prog.go).
	reads       map[core.ID]*pendingRead
	gcSeen      map[int]core.Timestamp
	gcShardSeen map[int]core.Timestamp
	// pins holds snapshot timestamps (refcounted by identity) that GC
	// reports must not advance past: a pinned snapshot keeps every
	// version it can see alive cluster-wide (§4.5).
	pins map[core.ID]*pinnedSnapshot
	// retain is the sample log implementing HistoryRetention: (wall time,
	// clock) pairs appended on each GC tick, reported once old enough.
	retain []retainSample

	// pause gates operation intake: the epoch barrier (§4.3), bulk loads,
	// migration batches and checkpoints write-lock it.
	pause sync.RWMutex
	// The epoch barrier's claim on pause, from the manager's latest
	// EpochPhasePause (barrierFor) to its Enter: barrierTaking while
	// takeBarrierPause waits for the lock, barrierHeld once it has it —
	// an Enter never unlocks a pause the barrier did not take.
	barrierMu     sync.Mutex
	barrierFor    wire.EpochChange
	barrierTaking bool
	barrierHeld   bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	hopSeq atomic.Uint64

	txCommitted   atomic.Uint64
	txConflicts   atomic.Uint64
	txInvalid     atomic.Uint64
	txRetries     atomic.Uint64
	txApplied     atomic.Uint64
	applyPending  atomic.Int64
	pauses        atomic.Uint64
	announces     atomic.Uint64
	nops          atomic.Uint64
	readsStarted  [2]atomic.Uint64 // indexed by readKind
	readsFinished [2]atomic.Uint64
	oracleAssigns atomic.Uint64
}

// New wires a gatekeeper to its endpoint, backing store, oracle, and
// directory. Call Start to launch its background loops.
func New(cfg Config, ep transport.Endpoint, kv kvstore.Backing, orc oracle.Client, dir partition.Directory) *Gatekeeper {
	cfg = cfg.withDefaults()
	g := &Gatekeeper{
		cfg:        cfg,
		ep:         ep,
		kv:         kv,
		orc:        orc,
		dir:        dir,
		m:          newObsMetrics(cfg.Obs),
		clock:      core.NewVectorClock(cfg.ID, cfg.NumGatekeepers, cfg.Epoch),
		seq:        transport.NewSequencer(),
		awaiting:   make(map[transport.Addr]struct{}, cfg.NumShards),
		reads:      make(map[core.ID]*pendingRead),
		pins:       make(map[core.ID]*pinnedSnapshot),
		indexed:    make(map[string]struct{}, len(cfg.IndexedKeys)),
		markerHave: make(map[string]struct{}),
		stop:       make(chan struct{}),
	}
	for _, k := range cfg.IndexedKeys {
		g.indexed[k] = struct{}{}
	}
	for s := 0; s < cfg.NumShards; s++ {
		g.awaiting[transport.ShardAddr(s)] = struct{}{}
	}
	g.planner = plan.New(cfg.NumShards, g)
	return g
}

// Start launches the receive, announce, NOP, and GC loops.
func (g *Gatekeeper) Start() {
	g.wg.Add(1)
	go g.recvLoop()
	g.wg.Add(1)
	go g.tickerLoop(g.cfg.AnnouncePeriod, g.announce)
	g.wg.Add(1)
	go g.tickerLoop(g.cfg.NopPeriod, g.sendNops)
	if g.cfg.GCPeriod > 0 {
		g.wg.Add(1)
		go g.tickerLoop(g.cfg.GCPeriod, g.sendGCReport)
	}
	if g.cfg.HeartbeatPeriod > 0 {
		g.wg.Add(1)
		go g.tickerLoop(g.cfg.HeartbeatPeriod, g.heartbeat)
	}
}

// heartbeat signals liveness to the cluster manager.
func (g *Gatekeeper) heartbeat() {
	g.ep.Send(cluster.Addr, wire.Heartbeat{From: g.ep.Addr()})
}

// Pause blocks new transactions and node programs until Resume: bulk
// loads, vertex-migration batches and checkpoints fence with it, and the
// epoch barrier takes the same gate (handleEpochChange, §4.3). The pause
// counter in Stats lets tests assert how many stop-the-world windows an
// operation cost (MigrateBatch promises exactly one for a whole batch).
func (g *Gatekeeper) Pause() {
	g.pause.Lock()
	g.pauses.Add(1)
}

// Resume reverses Pause.
func (g *Gatekeeper) Resume() { g.pause.Unlock() }

// Stop terminates the background loops and fails outstanding reads.
func (g *Gatekeeper) Stop() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
	g.mu.Lock()
	for _, p := range g.reads {
		p.err = ErrStopped
		close(p.done)
	}
	clear(g.reads)
	g.mu.Unlock()
	// No Enter can arrive any more: hand back a barrier-held pause, so
	// callers parked at the gate get ErrStopped instead of waiting forever.
	g.barrierMu.Lock()
	if g.barrierHeld {
		g.barrierHeld = false
		g.Resume()
	}
	g.barrierMu.Unlock()
}

// Stats returns a snapshot of activity counters.
func (g *Gatekeeper) Stats() Stats {
	return Stats{
		TxCommitted:     g.txCommitted.Load(),
		TxConflicts:     g.txConflicts.Load(),
		TxInvalid:       g.txInvalid.Load(),
		TxRetries:       g.txRetries.Load(),
		TxApplied:       g.txApplied.Load(),
		ApplyPending:    uint64(max(g.applyPending.Load(), 0)),
		Pauses:          g.pauses.Load(),
		Announces:       g.announces.Load(),
		Nops:            g.nops.Load(),
		ProgsStarted:    g.readsStarted[progRead].Load(),
		ProgsFinished:   g.readsFinished[progRead].Load(),
		LookupsStarted:  g.readsStarted[lookupRead].Load(),
		LookupsFinished: g.readsFinished[lookupRead].Load(),
		OracleAssigns:   g.oracleAssigns.Load(),
	}
}

// ID returns the gatekeeper index.
func (g *Gatekeeper) ID() int { return g.cfg.ID }

// ApplyLag returns the number of forwarded write-sets not yet acknowledged
// as applied — the live admission-control signal behind maxApplyLag
// (exported so the cluster can surface it as a gauge).
func (g *Gatekeeper) ApplyLag() int64 { return max(g.applyPending.Load(), 0) }

// Quiesce blocks until every write-set this gatekeeper has forwarded has
// been acknowledged as applied by its shard (wire.TxApplied), or the
// timeout expires. It is the apply fence behind Cluster.Quiesce: commit
// makes a transaction durable and strictly ordered, Quiesce additionally
// guarantees the in-memory graphs have caught up — useful for
// benchmarking the shard apply path and for tests that inspect shard
// state directly. Acks are counted, not sequenced, so out-of-order
// completion inside a parallel apply batch needs no special handling.
func (g *Gatekeeper) Quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	// Deliberate poll (the fence is a test/bench tool, not a hot path),
	// with backoff so a long drain does not spin: 50µs keeps short fences
	// snappy, the 1ms cap bounds wakeups during big backlogs.
	wait := 50 * time.Microsecond
	for {
		if g.applyPending.Load() <= 0 {
			return nil
		}
		select {
		case <-g.stop:
			return ErrStopped
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gatekeeper %d: quiesce timeout: %d applies outstanding",
				g.cfg.ID, g.applyPending.Load())
		}
		time.Sleep(wait)
		if wait < time.Millisecond {
			wait *= 2
		}
	}
}

// OutstandingPrograms returns the number of read queries — node programs
// and index lookups — issued through this gatekeeper that have not yet
// completed. Bulk ingest and migration batches drain them before mutating
// shard state wholesale: a lookup mid-scatter must not observe a vertex's
// postings detached from its source shard but not yet attached at its
// target.
func (g *Gatekeeper) OutstandingPrograms() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.reads)
}

// ObserveTimestamp merges ts into this gatekeeper's vector clock, exactly
// as receiving it in an Announce would (§3.3). Bulk ingest uses it to
// install the load frontier: once every gatekeeper has observed the bulk
// timestamp, every future transaction in the cluster is vector-clock-after
// it, so loaded state needs no oracle refinement against new writes.
func (g *Gatekeeper) ObserveTimestamp(ts core.Timestamp) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.clock.Observe(ts)
}

// Now returns the clock's current value without advancing it.
func (g *Gatekeeper) Now() core.Timestamp {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.clock.Peek()
}

// Snapshot ticks the clock and returns the fresh timestamp: a handle
// strictly after every transaction committed through this gatekeeper,
// usable for historical reads (§4.5).
func (g *Gatekeeper) Snapshot() core.Timestamp {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.clock.Tick()
}

// PinSnapshot mints a snapshot timestamp (see Snapshot) and pins it: GC
// watermark reports from this gatekeeper will not advance past it, so the
// versions visible at the pin stay readable cluster-wide — shards prune at
// the pointwise minimum over all gatekeepers' reports, and this
// gatekeeper's report is in that minimum — until Unpin releases it.
func (g *Gatekeeper) PinSnapshot() core.Timestamp { return g.pinRead(core.Timestamp{}) }

// pinLocked takes one reference on ts. Pins are refcounted by timestamp
// identity; pinning a timestamp already behind the cluster watermark does
// not resurrect collected versions — reads at it may still fail with
// ErrStaleSnapshot.
func (g *Gatekeeper) pinLocked(ts core.Timestamp) {
	id := ts.ID()
	if p := g.pins[id]; p != nil {
		p.refs++
		return
	}
	g.pins[id] = &pinnedSnapshot{ts: ts, refs: 1}
}

// Unpin releases one reference on a pinned snapshot; the last release lets
// the GC watermark advance past it. Unknown timestamps are ignored (pins
// do not survive gatekeeper failover; the replacement instance starts
// empty and its new epoch already orders after everything pinned).
func (g *Gatekeeper) Unpin(ts core.Timestamp) {
	g.mu.Lock()
	defer g.mu.Unlock()
	id := ts.ID()
	p := g.pins[id]
	if p == nil {
		return
	}
	if p.refs--; p.refs <= 0 {
		delete(g.pins, id)
	}
}

// AdvanceEpoch moves the clock into a new epoch (cluster manager barrier,
// §4.3) and resets FIFO sequence numbering toward the shards. Apply
// accounting resets with it: the barrier's drain means every pre-epoch
// forward has been applied, and any ack still in flight carries the old
// epoch and is ignored.
func (g *Gatekeeper) AdvanceEpoch(epoch uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.clock.AdvanceEpoch(epoch)
	g.seq.Reset()
	g.applyPending.Store(0)
}

func (g *Gatekeeper) tickerLoop(period time.Duration, fn func()) {
	defer g.wg.Done()
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			fn()
		}
	}
}

func (g *Gatekeeper) recvLoop() {
	defer g.wg.Done()
	for {
		select {
		case <-g.stop:
			return
		case <-g.ep.Recv():
			for {
				msg, ok := g.ep.Next()
				if !ok {
					break
				}
				g.handle(msg)
			}
		}
	}
}

func (g *Gatekeeper) handle(msg transport.Message) {
	switch m := msg.Payload.(type) {
	case wire.Announce:
		g.mu.Lock()
		g.clock.Observe(m.TS)
		g.mu.Unlock()
	case wire.TxApplied:
		n := int64(m.Count)
		if n <= 0 {
			n = 1
		}
		g.txApplied.Add(uint64(n))
		// Apply accounting is per epoch: AdvanceEpoch zeroes the counter
		// (the §4.3 barrier executes every queued transaction), so an ack
		// stamped with an earlier epoch — from a pre-barrier write-set, or
		// one forwarded by this gatekeeper's previous incarnation — must
		// not consume a current-epoch pending. The epoch check and the
		// decrement stay under one mu hold so an epoch bump cannot slip
		// between them; the zero clamp is a last resort against double
		// acks.
		g.mu.Lock()
		if m.TS.Epoch == g.clock.Peek().Epoch {
			for {
				cur := g.applyPending.Load()
				if cur <= 0 {
					break
				}
				if g.applyPending.CompareAndSwap(cur, cur-min(cur, n)) {
					break
				}
			}
		}
		g.mu.Unlock()
	case wire.ProgDelta:
		g.handleProgDelta(m, msg.From)
	case wire.IndexResult:
		g.handleIndexResult(m)
	case wire.Heartbeat:
		// A shard's answer to sendNops' hello.
		g.mu.Lock()
		delete(g.awaiting, m.From)
		g.mu.Unlock()
	case wire.GCReport:
		// Gatekeeper 0 aggregates watermarks and prunes the oracle's
		// event dependency graph (§4.5).
		g.handleGCReport(m)
	case wire.ShardGCReport:
		g.handleShardGCReport(m)
	case wire.EpochChange:
		g.handleEpochChange(m)
	}
}

// handleEpochChange is the gatekeeper's half of the §4.3 barrier. Pause
// stops new commits and acks once it has; Enter flips the epoch, resumes,
// and acks. The pause lock is taken OFF the receive loop: a bulk load or
// migration batch may be holding it while it waits in Quiesce for the
// TxApplied acks only this loop can drain, and the Enter that ends the
// barrier arrives here too.
func (g *Gatekeeper) handleEpochChange(m wire.EpochChange) {
	g.barrierMu.Lock()
	defer g.barrierMu.Unlock()
	switch m.Phase {
	case wire.EpochPhasePause:
		g.barrierFor = m
		switch {
		case g.barrierHeld:
			// A new barrier after one that never reached its Enter:
			// already paused for it.
			g.ackEpochChange(m)
		case !g.barrierTaking:
			g.barrierTaking = true
			g.wg.Add(1)
			go g.takeBarrierPause()
		}
	case wire.EpochPhaseEnter:
		g.AdvanceEpoch(m.Epoch)
		if g.barrierHeld {
			g.barrierHeld = false
			g.Resume()
		}
		g.ackEpochChange(m)
	}
}

// takeBarrierPause takes the pause lock for the barrier and acks the
// Pause it now serves — unless the manager stopped waiting and that
// barrier's Enter got here first: then the lock goes straight back. At
// most one runs at a time, waiting only behind fences that end.
func (g *Gatekeeper) takeBarrierPause() {
	defer g.wg.Done()
	g.Pause()
	g.barrierMu.Lock()
	defer g.barrierMu.Unlock()
	g.barrierTaking = false
	if g.Now().Epoch >= g.barrierFor.Epoch {
		g.Resume()
		return
	}
	g.barrierHeld = true
	g.ackEpochChange(g.barrierFor)
}

func (g *Gatekeeper) ackEpochChange(m wire.EpochChange) {
	g.ep.Send(m.From, wire.EpochAck{Epoch: m.Epoch, From: g.ep.Addr(), Phase: m.Phase})
}

// announce broadcasts the clock to all other gatekeepers (§3.3).
// Deliberately NOT gated on the pause lock: announcements must keep
// flowing while a migration batch or bulk load holds Pause, or the
// peers' clocks stall. An old-epoch snapshot straggling across an epoch
// barrier is harmless — Observe ignores cross-epoch stamps.
func (g *Gatekeeper) announce() {
	g.mu.Lock()
	ts := g.clock.Peek()
	g.mu.Unlock()
	for i := 0; i < g.cfg.NumGatekeepers; i++ {
		if i == g.cfg.ID {
			continue
		}
		if g.ep.Send(transport.GatekeeperAddr(i), wire.Announce{TS: ts}) == nil {
			g.announces.Add(1)
		}
	}
}

// sendNops stamps one NOP and forwards it to every shard (§4.2), keeping
// every per-gatekeeper shard queue non-empty so node programs and queued
// transactions make progress. Deliberately NOT gated on the pause lock:
// MigrateBatch and bulk loads Quiesce the apply pipeline WHILE holding
// Pause, and shards need every gatekeeper's frontier to keep advancing
// to drain their queues — gating NOPs on pause deadlocks that fence.
// The epoch-barrier hazard (an old-epoch NOP with a stale sequence
// number landing after the shard reset its resequencer) is handled at
// the shard: ingest drops any item whose epoch is behind the shard's.
//
// The stream does not start until every shard has answered a hello: a NOP
// sent to a shard that is not serving yet (processes of one deployment
// start in any order — its endpoint may not exist, or its boot-time epoch
// query may be reading the mailbox) is lost, and its sequence number with
// it — a permanent gap the shard's resequencer waits behind forever. Until
// then each tick greets the silent shards with a heartbeat, which carries
// no sequence number and which a serving shard echoes (handle).
func (g *Gatekeeper) sendNops() {
	g.mu.Lock()
	if len(g.awaiting) > 0 {
		silent := make([]transport.Addr, 0, len(g.awaiting))
		for a := range g.awaiting {
			silent = append(silent, a)
		}
		g.mu.Unlock()
		for _, a := range silent {
			g.ep.Send(a, wire.Heartbeat{From: g.ep.Addr()})
		}
		return
	}
	ts := g.clock.Tick()
	sends := make([]struct {
		addr transport.Addr
		seq  uint64
	}, g.cfg.NumShards)
	for s := 0; s < g.cfg.NumShards; s++ {
		addr := transport.ShardAddr(s)
		sends[s].addr = addr
		sends[s].seq = g.seq.Next(addr)
	}
	g.mu.Unlock()
	for _, snd := range sends {
		if g.ep.Send(snd.addr, wire.Nop{TS: ts, Seq: snd.seq}) == nil {
			g.nops.Add(1)
		}
	}
}

func (g *Gatekeeper) sendGCReport() {
	g.mu.Lock()
	cur := g.clock.Peek()
	// The oracle watermark lags only in-flight operations: pins and the
	// retention window protect graph VERSIONS, not the dependency DAG —
	// reads resolve visibility without the oracle, so the DAG only needs
	// orders between transactions still working through the system. This
	// keeps the oracle small (and its queries fast) under long-lived
	// snapshots.
	wmOracle := cur
	for _, p := range g.reads {
		wmOracle = core.PointwiseMin(wmOracle, p.ts)
	}
	wm := cur
	if g.cfg.HistoryRetention > 0 {
		// Report the clock as it stood HistoryRetention ago, so versions
		// stay readable for the whole window. The sample log is appended
		// once per GC tick and trimmed to the newest old-enough entry,
		// bounding it to ~retention/GCPeriod samples.
		now := time.Now()
		g.retain = append(g.retain, retainSample{at: now, ts: wm})
		aged := -1
		for i := range g.retain {
			if now.Sub(g.retain[i].at) < g.cfg.HistoryRetention {
				break
			}
			aged = i
		}
		if aged < 0 {
			// Nothing old enough yet: hold every version (a zero
			// watermark collects nothing).
			g.retain = trimRetain(g.retain)
			g.mu.Unlock()
			g.broadcastGCReport(core.Timestamp{}, wmOracle)
			return
		}
		wm = g.retain[aged].ts
		g.retain = g.retain[aged:]
	}
	// The version watermark holds below every read in flight too; wmOracle
	// is already the minimum over them (and over the live clock, which the
	// retained sample never exceeds).
	wm = core.PointwiseMin(wm, wmOracle)
	for _, p := range g.pins {
		wm = core.PointwiseMin(wm, p.ts)
	}
	g.mu.Unlock()
	g.broadcastGCReport(wm, wmOracle)
}

// trimRetain bounds the sample log while no sample is old enough to
// report, guarding against a retention window much longer than the test or
// process lifetime: keep the oldest sample (the future report) and the
// most recent tail.
func trimRetain(log []retainSample) []retainSample {
	const maxSamples = 1 << 12
	if len(log) <= maxSamples {
		return log
	}
	head := log[0]
	tail := log[len(log)-maxSamples/2:]
	out := make([]retainSample, 0, 1+len(tail))
	out = append(out, head)
	return append(out, tail...)
}

func (g *Gatekeeper) broadcastGCReport(wm, wmOracle core.Timestamp) {
	rep := wire.GCReport{GK: g.cfg.ID, TS: wm, OracleTS: wmOracle}
	for s := 0; s < g.cfg.NumShards; s++ {
		g.ep.Send(transport.ShardAddr(s), rep)
	}
	// Gatekeeper 0 aggregates for the oracle.
	g.ep.Send(transport.GatekeeperAddr(0), rep)
}

// handleGCReport aggregates per-gatekeeper ORACLE watermarks at gatekeeper
// 0; version watermarks (m.TS) are consumed by the shards, not here.
func (g *Gatekeeper) handleGCReport(m wire.GCReport) {
	if g.cfg.ID != 0 {
		return
	}
	g.mu.Lock()
	if g.gcSeen == nil {
		g.gcSeen = make(map[int]core.Timestamp)
	}
	g.gcSeen[m.GK] = m.OracleTS
	g.maybeOracleGCLocked()
}

// handleShardGCReport folds one shard's apply-progress bound (see
// wire.ShardGCReport) into the oracle watermark at gatekeeper 0.
func (g *Gatekeeper) handleShardGCReport(m wire.ShardGCReport) {
	if g.cfg.ID != 0 {
		return
	}
	g.mu.Lock()
	if g.gcShardSeen == nil {
		g.gcShardSeen = make(map[int]core.Timestamp)
	}
	g.gcShardSeen[m.Shard] = m.TS
	g.maybeOracleGCLocked()
}

// maybeOracleGCLocked prunes the timeline oracle's event dependency graph
// once a report from every gatekeeper AND every shard is in (§4.5): the
// combined pointwise minimum is below every in-flight program and every
// committed-but-unapplied transaction, so no order the shards may still
// ask about is forgotten. Called with g.mu held; unlocks it.
func (g *Gatekeeper) maybeOracleGCLocked() {
	if len(g.gcSeen) < g.cfg.NumGatekeepers || len(g.gcShardSeen) < g.cfg.NumShards {
		g.mu.Unlock()
		return
	}
	all := make([]core.Timestamp, 0, len(g.gcSeen)+len(g.gcShardSeen))
	zero := false
	for _, ts := range g.gcSeen {
		all = append(all, ts)
	}
	for _, ts := range g.gcShardSeen {
		zero = zero || ts.Zero()
		all = append(all, ts)
	}
	g.gcSeen = make(map[int]core.Timestamp)
	g.gcShardSeen = make(map[int]core.Timestamp)
	g.mu.Unlock()
	if zero {
		return // some shard has no established frontier yet: hold everything
	}
	g.orc.GC(core.PointwiseMin(all...))
}
