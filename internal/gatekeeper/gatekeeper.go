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
//     (sequence-numbered) channels, and advances its stream at a shard with
//     NOPs (§4.2): for a fresh read it mints, one to each start shard with
//     the read, and a request (wire.NopRequest) to every other gatekeeper
//     for one past the read to those shards; one at once to a shard that
//     asks because a read is parked there; and one to every shard each
//     NopPeriod as the idle fallback;
//   - coordinates reads — node programs and index lookups, each at a fresh
//     or a caller-chosen historical timestamp (prog.go, lookup.go): tracks
//     outstanding hops and scatter rounds, gathers results, and triggers
//     program-state garbage collection on completion (§4.5).
package gatekeeper

import (
	"errors"
	"fmt"
	"maps"
	"slices"
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
	// NopPeriod is the idle fallback of the NOP stream (§4.2): a read
	// waits for NOPs its shard asks for (wire.NopRequest), and this period
	// bounds the wait only when such a request is lost.
	NopPeriod time.Duration
	// GCPeriod is how often this gatekeeper reports to gatekeeper 0, whose
	// GC round waits for every gatekeeper; 0 here disables GC cluster-wide
	// (retain full multi-version history, §4.5).
	GCPeriod time.Duration
	// HistoryRetention, when positive, lags gatekeeper 0's cluster
	// watermark by this wall-clock window (retainLocked): any timestamp
	// minted by any gatekeeper within the window is at or after the
	// watermark, so historical reads inside it always pass the shards'
	// staleness check. Zero: no retention beyond in-flight operations and
	// pinned snapshots.
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

// Stats counts gatekeeper activity. Announces per operation is the
// ledger's gatekeeper.announces_per_op row, the proactive half of §6.5's
// trade-off.
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

// retainSample is one (wall time, folded watermark) entry in the retention log.
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

	mu sync.Mutex
	// changed wakes waitFor: broadcast, mu held, wherever a waited-on count
	// falls (applies, reads, an epoch change) and on Stop.
	changed sync.Cond
	clock   *core.VectorClock
	seq     *transport.Sequencer
	// awaiting holds the shards that have not yet answered this
	// gatekeeper's hello; sendNops holds the NOP stream to a shard back
	// until it has. True: sendNops held a NOP back from it, sent when its
	// answer arrives.
	awaiting map[transport.Addr]bool
	// shards lists every shard address: the periodic NOP's fan-out.
	shards []transport.Addr
	// reads holds every read in flight — node programs and index-lookup
	// rounds — keyed by the read's own fresh timestamp (prog.go).
	reads map[core.ID]*pendingRead
	// pins holds snapshot timestamps (refcounted by identity) that GC
	// reports must not advance past: a pinned snapshot keeps every
	// version it can see alive cluster-wide (§4.5).
	pins map[core.ID]*pinnedSnapshot
	// Gatekeeper 0's GC round (foldGCReportLocked): this round's reports,
	// the ratcheted watermark last sent and when it advanced (Unix ns), the
	// HistoryRetention log, the latest round's oracle watermark and the
	// shards' answers since the last oracle prune.
	gcSeen     map[int]wire.GCReport
	gcWM       core.Timestamp
	retain     []retainSample
	gcOracle   core.Timestamp
	gcBounds   map[int]core.Timestamp
	gcAdvanced atomic.Int64

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
		awaiting:   make(map[transport.Addr]bool, cfg.NumShards),
		reads:      make(map[core.ID]*pendingRead),
		pins:       make(map[core.ID]*pinnedSnapshot),
		gcSeen:     make(map[int]wire.GCReport, cfg.NumGatekeepers),
		gcBounds:   make(map[int]core.Timestamp, cfg.NumShards),
		indexed:    make(map[string]struct{}, len(cfg.IndexedKeys)),
		markerHave: make(map[string]struct{}),
		stop:       make(chan struct{}),
	}
	g.changed.L = &g.mu
	for _, k := range cfg.IndexedKeys {
		g.indexed[k] = struct{}{}
	}
	for s := 0; s < cfg.NumShards; s++ {
		g.awaiting[transport.ShardAddr(s)] = false
		g.shards = append(g.shards, transport.ShardAddr(s))
	}
	g.planner = plan.New(cfg.NumShards, g)
	if cfg.ID == 0 { // a stalled GC round shows as an age that only grows
		g.gcAdvanced.Store(time.Now().UnixNano())
		cfg.Obs.GaugeFunc("weaver_gc_watermark_age_seconds", func() int64 {
			return int64(time.Since(time.Unix(0, g.gcAdvanced.Load())) / time.Second)
		})
	}
	return g
}

// Start launches the receive, announce, NOP, and GC loops.
func (g *Gatekeeper) Start() {
	g.wg.Add(1)
	go g.recvLoop()
	g.wg.Add(1)
	go g.tickerLoop(g.cfg.AnnouncePeriod, g.announce)
	g.wg.Add(1)
	go g.tickerLoop(g.cfg.NopPeriod, func() { g.sendNops(g.shards) })
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
	// Wake waitFor before Wait: a fence waiting there may hold the pause
	// lock that takeBarrierPause, which Wait waits for, is blocked on.
	g.wake()
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
// state directly.
func (g *Gatekeeper) Quiesce(timeout time.Duration) error {
	return g.fence(time.Now().Add(timeout), false)
}

// Drain is Quiesce until deadline that also waits for every read this
// gatekeeper coordinates to finish. Bulk ingest and migration batches drain
// before mutating shard state wholesale: a lookup mid-scatter must not
// observe a vertex's postings detached from its source shard but not yet
// attached at its target. A deadline already past still passes a
// gatekeeper with nothing outstanding.
func (g *Gatekeeper) Drain(deadline time.Time) error { return g.fence(deadline, true) }

// fence waits for every forwarded write-set to be applied and, with reads,
// every registered read to finish, and names what is left at the deadline.
func (g *Gatekeeper) fence(deadline time.Time, reads bool) error {
	var applies int64
	var running int
	err := g.waitFor(func() bool {
		applies, running = g.applyPending.Load(), len(g.reads)
		return applies <= 0 && (!reads || running == 0)
	}, deadline)
	switch {
	case err != errDeadline:
		return err
	case applies > 0:
		return fmt.Errorf("gatekeeper %d: quiesce timeout: %d applies outstanding", g.cfg.ID, applies)
	}
	return fmt.Errorf("%d node programs still running", running)
}

var errDeadline = errors.New("gatekeeper: wait deadline passed")

// waitFor blocks until done, run with g.mu held, reports true — checked
// at once and on each broadcast of changed — or else until the deadline
// (errDeadline) or Stop (ErrStopped).
func (g *Gatekeeper) waitFor(done func() bool, deadline time.Time) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	var timer *time.Timer
	for !done() {
		select {
		case <-g.stop:
			return ErrStopped
		default:
		}
		if !time.Now().Before(deadline) {
			return errDeadline
		}
		if timer == nil {
			timer = time.AfterFunc(time.Until(deadline), g.wake)
			defer timer.Stop()
		}
		g.changed.Wait()
	}
	return nil
}

func (g *Gatekeeper) wake() {
	g.mu.Lock()
	g.changed.Broadcast()
	g.mu.Unlock()
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
// reports from this gatekeeper will not advance past it, so the versions
// visible at the pin stay readable cluster-wide — the cluster watermark
// shards collect at is the pointwise minimum over all gatekeepers'
// reports, and this gatekeeper's report is in that minimum — until Unpin
// releases it.
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
	g.changed.Broadcast()
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
		// acks, and needs no CAS: every decrement holds mu, and a forward
		// racing this one only raises the count.
		g.mu.Lock()
		if cur := g.applyPending.Load(); cur > 0 && m.TS.Epoch == g.clock.Peek().Epoch {
			g.applyPending.Add(-min(cur, n))
			g.changed.Broadcast()
		}
		g.mu.Unlock()
	case wire.ProgDelta:
		g.handleProgDelta(m, msg.From)
	case wire.IndexResult:
		g.handleIndexResult(m)
	case wire.Heartbeat:
		// A shard's answer to sendNops' hello: its stream starts, with the
		// NOP held back from it if there was one.
		g.mu.Lock()
		owed := g.awaiting[m.From]
		delete(g.awaiting, m.From)
		g.mu.Unlock()
		if owed {
			g.sendNops([]transport.Addr{m.From})
		}
	case wire.NopRequest:
		// A read waits at shard m.From behind this gatekeeper's stream:
		// learn the read's clock and send that shard one NOP past it now.
		// The request comes from the shard that parked the read or, for a
		// fresh read, from the gatekeeper that minted it; only the shard's
		// own request shows that it is serving and needs no hello.
		g.mu.Lock()
		g.clock.Observe(m.TS)
		if msg.From == m.From {
			delete(g.awaiting, m.From)
		}
		g.mu.Unlock()
		g.sendNops([]transport.Addr{m.From})
	case wire.GCReport:
		// Sent only to gatekeeper 0, which runs the GC rounds (§4.5).
		g.mu.Lock()
		g.foldGCReportLocked(m)
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

// sendNops stamps one NOP and forwards it to each of the shards to (§4.2),
// advancing this gatekeeper's stream there so node programs and queued
// transactions make progress: every shard on each NopPeriod tick, the idle
// fallback; a fresh read's start shards when RunProgram mints it; and the
// one shard a wire.NopRequest names — its clock observed first, so the NOP
// is vclock-after the read it waits for.
// Deliberately NOT gated on the pause lock:
// MigrateBatch and bulk loads Quiesce the apply pipeline WHILE holding
// Pause, and shards need every gatekeeper's frontier to keep advancing
// to drain their queues — gating NOPs on pause deadlocks that fence.
// The epoch-barrier hazard (an old-epoch NOP with a stale sequence
// number landing after the shard reset its resequencer) is handled at
// the shard: ingest drops any item whose epoch is behind the shard's.
//
// A shard's stream does not start until it has answered a hello: a NOP
// sent to a shard that is not serving yet (processes of one deployment
// start in any order — its endpoint may not exist, or its boot-time epoch
// query may be reading the mailbox) is lost, and its sequence number with
// it — a permanent gap the shard's resequencer waits behind forever. Until
// then each NOP for it is held back and the shard is greeted with a
// heartbeat instead, which carries no sequence number and which a serving
// shard echoes; the echo brings the held-back NOP (handle), as a read
// waiting for it may ask nobody else.
func (g *Gatekeeper) sendNops(to []transport.Addr) {
	g.mu.Lock()
	var ts core.Timestamp
	seqs := make([]uint64, len(to)) // 0: held back, greet instead
	for i, a := range to {
		if _, silent := g.awaiting[a]; silent {
			g.awaiting[a] = true
			continue
		}
		if ts.Zero() {
			ts = g.clock.Tick()
		}
		seqs[i] = g.seq.Next(a)
	}
	g.mu.Unlock()
	for i, a := range to {
		if seqs[i] == 0 {
			g.ep.Send(a, wire.Heartbeat{From: g.ep.Addr()})
		} else if g.ep.Send(a, wire.Nop{TS: ts, Seq: seqs[i]}) == nil {
			g.nops.Add(1)
		}
	}
}

// sendGCReport is the GC tick (§4.5): this gatekeeper's clock held below
// its in-flight reads (OracleTS) and further below its pins (TS), sent to
// gatekeeper 0, which folds its own report without a send.
func (g *Gatekeeper) sendGCReport() {
	g.mu.Lock()
	rep := wire.GCReport{GK: g.cfg.ID, OracleTS: g.clock.Peek()}
	for _, p := range g.reads {
		rep.OracleTS = core.PointwiseMin(rep.OracleTS, p.ts)
	}
	rep.TS = rep.OracleTS
	for _, p := range g.pins {
		rep.TS = core.PointwiseMin(rep.TS, p.ts)
	}
	if g.cfg.ID == 0 {
		g.foldGCReportLocked(rep)
		return
	}
	g.mu.Unlock()
	g.ep.Send(transport.GatekeeperAddr(0), rep)
}

// foldGCReportLocked is gatekeeper 0's GC round, the one place the cluster
// watermark is computed. Once every gatekeeper has reported since the last
// round, the pointwise minimum of their TS, lagged by HistoryRetention and
// ratcheted, goes to every shard; the minimum of their OracleTS waits for
// the shards' answers (handleShardGCReport). Called with g.mu held;
// unlocks it.
func (g *Gatekeeper) foldGCReportLocked(rep wire.GCReport) {
	g.gcSeen[rep.GK] = rep
	if len(g.gcSeen) < g.cfg.NumGatekeepers {
		g.mu.Unlock()
		return
	}
	var ts, orc []core.Timestamp
	for _, r := range g.gcSeen {
		ts, orc = append(ts, r.TS), append(orc, r.OracleTS)
	}
	clear(g.gcSeen)
	g.gcOracle = core.PointwiseMin(orc...)
	now := time.Now()
	wm := g.retainLocked(now, core.PointwiseMin(ts...))
	// Ratcheted pointwise, like the shards' staleness check: a lower round
	// (a read or pin below the last) never loosens it, and happens-before
	// Compare may call a strict advance of a folded minimum Concurrent.
	if !wm.Zero() && (g.gcWM.Zero() || g.gcWM.PointwiseLT(wm)) {
		g.gcWM = wm
		g.gcAdvanced.Store(now.UnixNano())
	}
	msg := wire.GCWatermark{TS: g.gcWM}
	g.mu.Unlock()
	for _, s := range g.shards {
		g.ep.Send(s, msg)
	}
}

// retainLocked lags a folded watermark by HistoryRetention, so versions stay
// readable for the whole window: a timestamp minted inside it is pointwise
// at or above every round folded before the window began. It returns the
// newest logged round at least that old, held below wm (a read or pin
// younger than it), or zero while none is. The log keeps at most one
// round per 1/1024 of the window.
func (g *Gatekeeper) retainLocked(now time.Time, wm core.Timestamp) core.Timestamp {
	ret := g.cfg.HistoryRetention
	if ret <= 0 {
		return wm
	}
	if n := len(g.retain); n == 0 || now.Sub(g.retain[n-1].at) >= ret/1024 {
		g.retain = append(g.retain, retainSample{at: now, ts: wm})
	}
	aged := 0
	for aged < len(g.retain) && now.Sub(g.retain[aged].at) >= ret {
		aged++
	}
	if aged == 0 {
		return core.Timestamp{}
	}
	g.retain = g.retain[aged-1:]
	return core.PointwiseMin(g.retain[0].ts, wm)
}

// handleShardGCReport folds one shard's answer (wire.ShardGCReport) at
// gatekeeper 0. Once every shard has answered since the last prune, the
// oracle is pruned below the latest round's OracleTS and every answer —
// below every in-flight read and every committed-but-unapplied
// transaction (§4.5) — unless an answer is zero.
func (g *Gatekeeper) handleShardGCReport(m wire.ShardGCReport) {
	g.mu.Lock()
	g.gcBounds[m.Shard] = m.TS
	if len(g.gcBounds) < g.cfg.NumShards {
		g.mu.Unlock()
		return
	}
	all := append(slices.Collect(maps.Values(g.gcBounds)), g.gcOracle)
	clear(g.gcBounds)
	g.mu.Unlock()
	if !slices.ContainsFunc(all, core.Timestamp.Zero) {
		g.orc.GC(core.PointwiseMin(all...))
	}
}
