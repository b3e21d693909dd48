// Package shard implements Weaver's shard servers (§3.2, §4.1, §4.2): the
// in-memory multi-version graph partitions that execute transactions and
// node programs.
//
// Ordering model. Each shard keeps one queue per gatekeeper. Gatekeeper i's
// stream (transactions and NOPs) arrives FIFO — restored by sequence
// numbers — and carries monotonically increasing timestamps, so everything
// a shard will ever receive from gatekeeper i is vector-clock-after the
// last in-order item seen from i (the "frontier"). The event loop executes
// the transaction at the globally earliest head: a head runs when every
// other queue's head orders after it (consulting the timeline oracle for
// concurrent pairs — decisions are cached, §4.2) or is empty with a
// frontier already past it. NOPs never enqueue; they only advance the
// frontier (§4.2). Each applied transaction is acknowledged to its
// gatekeeper with a TxApplied message, enabling cluster-wide apply fences
// (gatekeeper Quiesce).
//
// Reads — node-program hops and index lookups alike (§4.1, prog.go) — wait
// until every frontier and every queued transaction is strictly after the
// read timestamp, i.e. until all preceding and concurrent transactions have
// executed, then read the multi-version graph at that timestamp, resolving
// the visibility of any version concurrent with it by the write-before-read
// preference (§4.1). A read that has to wait asks each gatekeeper whose
// stream holds it back for one NOP past it (wire.NopRequest), so the wait
// is a round trip; the gatekeepers' periodic NOPs bound it only when a
// request is lost. Hops cascade locally and forward to peer shards;
// progress deltas flow to the coordinating gatekeeper.
//
// A shard holds one backing-store handle, given to New, and reads through
// it on three occasions: Recover at boot (§4.3), the same Recover at every
// epoch barrier — the sweep for write-sets a gatekeeper committed and was
// killed before forwarding, run in embedded and TCP deployments alike —
// and demand paging (§6.1), which Config.MaxVertices turns on. Every record
// read back replaces its vertex's chain with one marked at the record's
// stamp (graph.Store.Install), tombstones too. A read below a vertex's mark
// is refused as stale, never answered "absent" (graph.View.Truncated); a
// lookup, below the index's install horizon. Paging never touches the index.
//
// Version GC (§4.5) runs on the event loop at the cluster watermark
// gatekeeper 0 sends once per GC round (maybeGC): ratcheted, it is the
// watermark reads are checked against, and every round collects below it
// in the graph and the index alike. A collection walks each store's retire
// list — one entry per ended version, appended where it ended — and sweeps
// only the chains those entries name, so a round costs what died since the
// last one, not the shard's size.
package shard

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"weaver/internal/cluster"
	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/index"
	"weaver/internal/kvstore"
	"weaver/internal/nodeprog"
	"weaver/internal/obs"
	"weaver/internal/oracle"
	"weaver/internal/partition"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// Config parameterizes a shard server.
type Config struct {
	// ID is this shard's index in [0, NumShards).
	ID int
	// NumGatekeepers sets the queue count.
	NumGatekeepers int
	// Epoch is the starting epoch.
	Epoch uint64
	// HeartbeatPeriod, when positive, sends liveness beats to the
	// cluster manager (§4.3).
	HeartbeatPeriod time.Duration
	// MaxVertices, when positive, turns demand paging on and caps resident
	// vertex histories: once the GC watermark advances, cold vertices (all
	// writes below the watermark) are paged out, and transactions and node
	// programs page missing vertices back in from the backing store on
	// demand (§6.1: "we implement demand paging in Weaver to read vertices
	// and edges from HyperDex Warp in to the memory of Weaver shards").
	// 0 = unlimited, no paging.
	MaxVertices int
	// Indexes declares the secondary property indexes this shard
	// maintains over its partition (internal/index); must be identical
	// across all shards of a cluster. Empty = no indexes.
	Indexes []index.Spec
	// Obs is the metrics/tracing registry. Nil disables observability
	// (every handle no-ops).
	Obs *obs.Registry
}

// Stats counts shard activity.
type Stats struct {
	TxExecuted     uint64
	OpsApplied     uint64
	ApplyErrors    uint64
	ApplyBatches   uint64 // == TxExecuted: the event loop applies one transaction at a time
	OrderFallbacks uint64 // barrier drains of conflicting txs without proven order (oracle down)
	NopsSeen       uint64
	ProgVisits     uint64
	ProgBatches    uint64
	OrderQueries   uint64 // oracle consultations for head ordering
	RecoverErrors  uint64 // epoch-barrier re-recoveries that could not read the backing store or a record in it
	CacheHits      uint64 // ordering answers served from the local cache
	GCCollected    uint64
	VersionsLive   uint64
	PagedIn        uint64
	PagedOut       uint64
	IndexLookups   uint64 // secondary-index queries answered by this shard
	IndexPostings  uint64 // index (value, vertex) candidate entries
}

type queued struct {
	ts  core.Timestamp
	ops []graph.Op
	// at is the receipt time (zero for NOPs) and trace the propagated
	// trace ID (0 = untraced); both feed the shard_queue/shard_apply
	// instrumentation in apply.
	at    time.Time
	trace uint64
}

// Shard is one shard server. All mutable state is owned by the Run loop
// goroutine; external readers use the atomic counters only.
type Shard struct {
	cfg Config
	ep  transport.Endpoint
	g   *graph.Store
	idx *index.Index
	orc oracle.Client
	reg *nodeprog.Registry
	dir partition.Directory
	m   obsMetrics

	// kv is the shard's one backing-store handle: boot recovery, the epoch
	// barrier's committed-but-unforwarded sweep, and demand paging all read
	// through it. Nil only in unit tests that exercise none of the three.
	kv kvstore.Backing
	// paging is Config.MaxVertices > 0, fixed at New: the apply and read
	// hot paths branch on it, never on the handle.
	paging bool

	reseq      []*transport.Resequencer[queued]
	queues     [][]queued
	frontier   []core.Timestamp
	reads      []pendingRead // FIFO of reads waiting at the gate (prog.go)
	progState  map[core.ID]map[graph.VertexID][]byte
	freeStates []map[graph.VertexID][]byte // ended queries' states maps, empty (endQuery)
	credits    map[graph.VertexID]float64  // runBatch's heat credits, empty between batches
	finished   map[core.ID]struct{}
	finishedQ  []core.ID // FIFO for bounding the finished set
	orderCache map[[2]core.ID]core.Order
	// asked is, per gatekeeper, the target of the NopRequests outstanding
	// there (zero: none): a NOP vclock-after it is on its way (solicit,
	// prog.go). Cleared when the stream passes it and at every epoch
	// barrier.
	asked []core.Timestamp
	// gcWM is the watermark every version collection runs at: each GC
	// round collects every version whose lifetime ended strictly before it.
	// Historical reads are answered only at or above it (§4.5). Only maybeGC
	// writes it (event-loop owned); what a reloaded record truncated is
	// refused by the record's own mark instead. The watermark folds
	// gatekeeper clocks, which run ahead of this shard's applies, so a
	// write applied later can end a version below it; the next round
	// collects that too.
	gcWM core.Timestamp
	// retired is the pending retirements (graph plus index) this shard
	// last added to the weaver_shard_gc_retired gauge, which shards share.
	retired int64
	// epoch is the shard's current epoch (event-loop owned): stale-epoch
	// stream traffic — a crashed gatekeeper's last NOPs straggling in
	// after the barrier — is dropped instead of poisoning the reset
	// resequencers.
	epoch uint64
	// view, visit and vertex are runBatch's one snapshot view (re-pointed
	// per batch), one Context and one vertex view (filled when a visit
	// asks, nodeprog.Context.View): a program keeps none of them past
	// Visit, so a hop allocates only what it sends.
	view   graph.View
	visit  nodeprog.Context
	vertex graph.VertexView
	// batch is runBatch's reusable buffers: a batch allocates only what
	// its programs return and its hops carry.
	batch hopScratch

	heat     *heatMap
	pagedIn  atomic.Uint64
	pagedOut atomic.Uint64

	hopSeq atomic.Uint64

	stop     chan struct{}
	stopOnce func()
	done     chan struct{}

	txExecuted     atomic.Uint64
	opsApplied     atomic.Uint64
	applyErrors    atomic.Uint64
	orderFallbacks atomic.Uint64
	nopsSeen       atomic.Uint64
	progVisits     atomic.Uint64
	progBatches    atomic.Uint64
	orderQueries   atomic.Uint64
	recoverErrors  atomic.Uint64
	cacheHits      atomic.Uint64
	gcCollected    atomic.Uint64
	indexLookups   atomic.Uint64
}

// maxCascade bounds one batch's local visit cascade (safety valve against
// non-terminating programs).
const maxCascade = 1 << 22

// New wires a shard server to its endpoint, backing store, oracle, program
// registry and directory. Call Recover (or InstallRecovered) to load its
// partition, then Start to launch its event loop.
func New(cfg Config, ep transport.Endpoint, kv kvstore.Backing, orc oracle.Client, reg *nodeprog.Registry, dir partition.Directory) *Shard {
	s := &Shard{
		cfg:        cfg,
		ep:         ep,
		kv:         kv,
		paging:     cfg.MaxVertices > 0,
		g:          graph.NewStore(),
		idx:        index.New(cfg.Indexes),
		orc:        orc,
		reg:        reg,
		dir:        dir,
		m:          newObsMetrics(cfg.Obs),
		reseq:      make([]*transport.Resequencer[queued], cfg.NumGatekeepers),
		queues:     make([][]queued, cfg.NumGatekeepers),
		frontier:   make([]core.Timestamp, cfg.NumGatekeepers),
		asked:      make([]core.Timestamp, cfg.NumGatekeepers),
		progState:  make(map[core.ID]map[graph.VertexID][]byte),
		credits:    make(map[graph.VertexID]float64),
		finished:   make(map[core.ID]struct{}),
		orderCache: make(map[[2]core.ID]core.Order),
		heat:       newHeatMap(),
		epoch:      cfg.Epoch,
	}
	for i := range s.reseq {
		s.reseq[i] = transport.NewResequencer[queued]()
	}
	stopCh := make(chan struct{})
	s.stop = stopCh
	var stopped atomic.Bool
	s.stopOnce = func() {
		if stopped.CompareAndSwap(false, true) {
			close(stopCh)
		}
	}
	s.done = make(chan struct{})
	return s
}

// ID returns the shard index.
func (s *Shard) ID() int { return s.cfg.ID }

// Graph exposes the multi-version store (read-only use: recovery checks and
// tests).
func (s *Shard) Graph() *graph.Store { return s.g }

// Stats returns a snapshot of activity counters.
func (s *Shard) Stats() Stats {
	return Stats{
		TxExecuted:     s.txExecuted.Load(),
		OpsApplied:     s.opsApplied.Load(),
		ApplyErrors:    s.applyErrors.Load(),
		ApplyBatches:   s.txExecuted.Load(),
		OrderFallbacks: s.orderFallbacks.Load(),
		NopsSeen:       s.nopsSeen.Load(),
		ProgVisits:     s.progVisits.Load(),
		ProgBatches:    s.progBatches.Load(),
		OrderQueries:   s.orderQueries.Load(),
		RecoverErrors:  s.recoverErrors.Load(),
		CacheHits:      s.cacheHits.Load(),
		GCCollected:    s.gcCollected.Load(),
		VersionsLive:   uint64(s.g.NumVertices()),
		PagedIn:        s.pagedIn.Load(),
		PagedOut:       s.pagedOut.Load(),
		IndexLookups:   s.indexLookups.Load(),
		IndexPostings:  uint64(s.idx.NumPostings()),
	}
}

// Recover pulls from the backing store every record homed here whose last
// committed write the in-memory graph does not already cover (order(): the
// oracle decides vclock-concurrent stamps, §4.2), and installs them through
// InstallRecovered. At boot (§4.3: before Start, behind the
// cluster manager's epoch barrier) the graph is empty, so that is the
// whole partition; at a later epoch barrier it is exactly the write-sets a
// gatekeeper committed and was killed before forwarding. A store that
// cannot be read is an error: "no answer" never passes for "no records".
// So is a record that does not decode: the rest are installed, and the
// error names each such key, so no vertex is served as absent for it.
func (s *Shard) Recover() (int, error) {
	var recs []*graph.VertexRecord
	var bad []error
	err := s.kv.ScanPrefix(graph.VertexKeyPrefix, func(key string, data []byte) {
		rec, err := graph.DecodeRecord(data)
		if err != nil {
			bad = append(bad, fmt.Errorf("record %q: %w", key, err))
			return
		}
		if rec.Shard != s.cfg.ID {
			return
		}
		// Re-install only a record after every resident last write: with
		// two concurrent ones, after both.
		if slices.ContainsFunc(s.g.LatestWrites(rec.ID), func(last core.Timestamp) bool {
			return s.order(rec.LastTS, last) != core.After
		}) {
			return
		}
		recs = append(recs, rec)
	})
	if err != nil {
		return 0, fmt.Errorf("shard %d: recover: %w", s.cfg.ID, err)
	}
	n := s.InstallRecovered(recs)
	if err = errors.Join(bad...); err != nil {
		err = fmt.Errorf("shard %d: recover: %w", s.cfg.ID, err)
	}
	return n, err
}

// InstallRecovered installs records read back from the backing store —
// Recover's scan, or weaver.Open's single scan bucketed per shard —
// tombstones included, marked: a stored record holds only the vertex's
// latest state, so reads below it are refused, never answered from
// truncated history. Returns the number of live records installed.
func (s *Shard) InstallRecovered(recs []*graph.VertexRecord) int {
	return s.install(recs, true)
}

// Install installs bulk-ingested records (Cluster.BulkLoadGraph's
// segments) unmarked: their fresh vertices did not exist before their
// stamp. The caller must guarantee no conflicting transaction is applying
// — gatekeepers paused and applies quiesced.
func (s *Shard) Install(recs []*graph.VertexRecord) int {
	return s.install(recs, false)
}

// install is the one install loop: each record homed here replaces its
// vertex's chain in the graph and the index (graph.Store.Install).
func (s *Shard) install(recs []*graph.VertexRecord, marked bool) int {
	mine, live := recs[:0:0], 0
	for _, rec := range recs {
		if rec.Shard == s.cfg.ID {
			mine = append(mine, rec)
			if !rec.Deleted {
				live++
			}
		}
	}
	s.g.Install(mine, marked)
	s.idx.Install(mine, marked)
	return live
}

// Moved is the shard state of vertices in transit between shards (vertex
// migration, §4.6), handed from the source's Detach to the target's Attach
// in memory: the resident version chains and the index state.
type Moved struct {
	chains []graph.History
	// Postings is the moved index state, superseded values included.
	Postings index.Postings
}

// Detach removes the given vertices from this shard: each resident version
// chain, the index state and the heat, whose activity belongs to the new
// home from here on. A vertex with no resident chain was paged out (§6.1):
// only its index state moves, as the index is never paged out, and the
// target faults it in from its re-homed record on first access. Callers
// hold the stop-the-world fence: gatekeepers paused, applies and reads
// drained on both shards.
func (s *Shard) Detach(ids []graph.VertexID) Moved {
	m := Moved{Postings: s.idx.Detach(ids)}
	for _, v := range ids {
		if h, ok := s.g.Detach(v); ok {
			m.chains = append(m.chains, h)
		}
		s.heat.forget(v)
	}
	return m
}

// Attach installs vertices another shard's Detach removed, under the same
// fence.
func (s *Shard) Attach(m Moved) {
	for _, h := range m.chains {
		s.g.Attach(h)
	}
	s.idx.Attach(m.Postings)
}

// Start launches the event loop and the heartbeat ticker, if configured.
func (s *Shard) Start() {
	go s.run()
	if s.cfg.HeartbeatPeriod > 0 {
		go func() {
			t := time.NewTicker(s.cfg.HeartbeatPeriod)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					s.ep.Send(cluster.Addr, wire.Heartbeat{From: s.ep.Addr()})
				}
			}
		}()
	}
}

// enterEpoch is the shard's half of the §4.3 barrier, run on the event
// loop when the manager's wire.EpochChange arrives: gatekeepers are
// paused and everything they forwarded sits ahead of that message in the
// mailbox, so every in-flight old-epoch item has been ingested. Execute
// everything still queued, flush and reset the per-gatekeeper FIFO
// streams, and expect new-epoch numbering from 1.
func (s *Shard) enterEpoch(epoch uint64) {
	for gk := range s.reseq {
		// Anything still buffered arrived out of order; apply it
		// in sequence order before resetting (gaps cannot occur
		// on the in-process fabric: sends land with the commit).
		for _, item := range s.reseq[gk].Flush() {
			s.frontier[gk] = item.ts
			if len(item.ops) > 0 {
				s.queues[gk] = append(s.queues[gk], item)
			}
		}
		s.reseq[gk].Reset()
	}
	clear(s.asked) // a request to the old epoch is answered in it, or never
	s.drainAllQueued()
	// A killed gatekeeper may have committed write-sets to the backing
	// store without forwarding them anywhere; pull them in now, while the
	// cluster is quiesced behind the barrier. (With demand paging this also
	// reloads paged-out vertices; they page out again at the next GC round.)
	if s.kv != nil {
		if _, err := s.Recover(); err != nil {
			s.recoverErrors.Add(1)
			s.m.recoverErrors.Inc()
			fmt.Fprintf(os.Stderr, "weaver shard %d: entering epoch %d with an incomplete committed-but-unforwarded sweep: %v\n", s.cfg.ID, epoch, err)
		}
	}
	s.epoch = epoch
	s.pump()
}

// drainAllQueued applies every queued transaction in refined timestamp
// order. Only valid at an epoch barrier: the per-gatekeeper streams are
// complete — no further old-epoch traffic can ever arrive — so the
// frontier checks that normally guard against unseen earlier traffic no
// longer constrain execution, and the queued set is totally ordered by
// order(). Without this, a transaction concurrent with a stalled peer
// frontier would survive the barrier unexecuted while the gatekeepers
// reset their apply accounting for the new epoch (Quiesce would lie).
func (s *Shard) drainAllQueued() {
	var acks ackSet
	warned := false
	for {
		best := -1
		for gk := range s.queues {
			if len(s.queues[gk]) == 0 {
				continue
			}
			if best == -1 {
				best = gk
				continue
			}
			// Tournament minimum under the oracle-refined total order.
			// order() answers Concurrent only when the oracle is
			// unreachable; the barrier must still terminate (the whole
			// cluster is blocked on it), so we fall back to keeping the
			// current candidate — safe when the two write-sets share no
			// vertex (they commute) and surfaced loudly when they do,
			// where arbitrary order could misorder versions.
			switch s.order(s.queues[gk][0].ts, s.queues[best][0].ts) {
			case core.Before:
				best = gk
			case core.Concurrent:
				if sharesVertex(s.queues[gk][0].ops, s.queues[best][0].ops) {
					s.orderFallbacks.Add(1)
					if !warned {
						warned = true
						fmt.Fprintf(os.Stderr,
							"weaver shard %d: epoch barrier with oracle unreachable; draining concurrent conflicting transactions in arbitrary order\n",
							s.cfg.ID)
					}
				}
			}
		}
		if best == -1 {
			acks.flush(s)
			return
		}
		h := s.queues[best][0]
		s.queues[best] = s.queues[best][1:]
		s.apply(h)
		acks.add(h.ts)
	}
}

// sharesVertex reports whether two write-sets mutate a common vertex (every
// operation, edge operations included, mutates exactly op.Vertex's chain).
func sharesVertex(a, b []graph.Op) bool {
	for i := range a {
		for j := range b {
			if a[i].Vertex == b[j].Vertex {
				return true
			}
		}
	}
	return false
}

// Stop terminates the event loop; idempotent (failure injection, then
// Close).
func (s *Shard) Stop() {
	s.stopOnce()
	<-s.done
}

func (s *Shard) run() {
	defer close(s.done)
	// A stopped shard's pending retirements leave the gauge shards share.
	defer func() { s.m.gcRetired.Add(-s.retired) }()
	for {
		select {
		case <-s.stop:
			return
		case <-s.ep.Recv():
			for msg, ok := s.ep.Next(); ok; msg, ok = s.ep.Next() {
				s.handle(msg)
			}
			s.pump()
		}
	}
}

func (s *Shard) handle(msg transport.Message) {
	switch m := msg.Payload.(type) {
	case wire.TxForward:
		now := time.Now()
		if m.Trace != 0 {
			// Close the wire_transfer span against the mark the
			// gatekeeper set at its send instant (same-process tracer;
			// over TCP the lookup misses and this no-ops).
			s.m.tracer.Lookup(m.Trace).SpanSinceMark("wire_transfer", now)
		}
		s.ingest(m.TS, m.Seq, m.Ops, now, m.Trace)
	case wire.Nop:
		s.nopsSeen.Add(1)
		s.ingest(m.TS, m.Seq, nil, time.Time{}, 0)
	case wire.ProgHops:
		s.reads = append(s.reads, pendingRead{readTS: m.ReadTS, hops: &m})
	case wire.ProgFinish:
		s.endQuery(m.QID)
		if _, seen := s.finished[m.QID]; !seen {
			s.finished[m.QID] = struct{}{}
			s.finishedQ = append(s.finishedQ, m.QID)
			// Bound the tombstone set; old queries cannot produce
			// further hops once their coordinator long closed.
			const maxFinished = 1 << 14
			for len(s.finishedQ) > maxFinished {
				delete(s.finished, s.finishedQ[0])
				s.finishedQ = s.finishedQ[1:]
			}
		}
	case wire.IndexLookup:
		s.reads = append(s.reads, pendingRead{readTS: m.ReadTS, lookup: &m})
	case wire.Heartbeat:
		// A gatekeeper's hello: it holds its NOP stream back until this
		// shard, now serving, answers.
		s.ep.Send(m.From, wire.Heartbeat{From: s.ep.Addr()})
	case wire.GCWatermark:
		// Gatekeeper 0's GC round: answer with the apply-progress bound the
		// oracle's prune waits for (wire.ShardGCReport), then collect.
		s.ep.Send(transport.GatekeeperAddr(0), wire.ShardGCReport{Shard: s.cfg.ID, TS: s.appliedBound()})
		s.maybeGC(m.TS)
	case wire.EpochChange:
		// The manager's barrier (§4.3). Shards have no issuance to pause,
		// so that phase is only acked.
		if m.Phase == wire.EpochPhaseEnter {
			s.enterEpoch(m.Epoch)
		}
		s.ep.Send(m.From, wire.EpochAck{Epoch: m.Epoch, From: s.ep.Addr(), Phase: m.Phase})
	}
}

// appliedBound returns a timestamp pointwise at-or-below every transaction
// this shard has received or will receive but not yet applied: per
// gatekeeper, the queue head if one is waiting, else the frontier (the
// stream is timestamp-monotone, so everything not yet delivered from that
// gatekeeper is strictly after its frontier). Zero while any frontier is
// still unestablished (startup).
func (s *Shard) appliedBound() core.Timestamp {
	var bound core.Timestamp
	for gk := range s.queues {
		ts := s.frontier[gk]
		if len(s.queues[gk]) > 0 {
			ts = s.queues[gk][0].ts
		}
		if ts.Zero() {
			return core.Timestamp{}
		}
		if bound.Zero() {
			bound = ts
		} else {
			bound = core.PointwiseMin(bound, ts)
		}
	}
	return bound
}

// ingest pushes one in-order stream item through the resequencer; NOPs
// advance the frontier, transactions enqueue.
func (s *Shard) ingest(ts core.Timestamp, seq uint64, ops []graph.Op, at time.Time, trace uint64) {
	gk := ts.Owner
	if gk < 0 || gk >= len(s.queues) {
		return
	}
	// A stale-epoch item — a dead gatekeeper's last traffic straggling in
	// after the barrier, or a paused peer's pre-barrier NOP delayed by
	// TCP — must not enter the resequencer: its old sequence numbering
	// would wedge the reset stream (new-epoch items start at 1) and its
	// timestamp precedes everything the barrier already drained.
	if ts.Epoch < s.epoch {
		return
	}
	s.reseq[gk].Push(seq, queued{ts: ts, ops: ops, at: at, trace: trace})
	for {
		item, ok := s.reseq[gk].Pop()
		if !ok {
			break
		}
		s.frontier[gk] = item.ts
		if len(item.ops) > 0 {
			s.queues[gk] = append(s.queues[gk], item)
		}
	}
	if a := s.asked[gk]; !a.Zero() && a.PointwiseLT(s.frontier[gk]) {
		s.asked[gk] = core.Timestamp{}
	}
}

// pump drains all executable work: transactions one at a time, always the
// earliest executable head (§4.1–4.2), then any reads that have become
// ready.
func (s *Shard) pump() {
	var acks ackSet
	for {
		h, ok := s.nextExecutable()
		if !ok {
			break
		}
		s.apply(h)
		acks.add(h.ts)
	}
	acks.flush(s)
	s.runReadyReads()
}

// nextExecutable pops the executable queue head, if any. At most one head
// is executable at a time: it orders before every other head.
func (s *Shard) nextExecutable() (queued, bool) {
	for gk, q := range s.queues {
		if len(q) > 0 && s.executable(q[0].ts, gk) {
			s.queues[gk] = q[1:]
			return q[0], true
		}
	}
	return queued{}, false
}

// executable reports whether the transaction at ts (head of queue hgk) is
// safe to execute: every other gatekeeper's next possible transaction is
// after it.
func (s *Shard) executable(ts core.Timestamp, hgk int) bool {
	for gk := range s.queues {
		if gk == hgk {
			continue
		}
		if len(s.queues[gk]) > 0 {
			if s.order(ts, s.queues[gk][0].ts) != core.Before {
				return false
			}
			continue
		}
		// Empty queue: rely on the frontier — everything still to come
		// from gk is vclock-after it.
		f := s.frontier[gk]
		if f.Zero() || ts.Compare(f) != core.Before {
			return false
		}
	}
	return true
}

// order resolves the execution order of two concurrent-capable timestamps,
// refining through the timeline oracle when vector clocks are inconclusive
// (§3.4). Decisions are cached shard-side — the oracle's answers are
// irreversible, so the cache never invalidates (§4.2).
func (s *Shard) order(a, b core.Timestamp) core.Order {
	if cmp := a.Compare(b); cmp != core.Concurrent {
		return cmp
	}
	key := [2]core.ID{a.ID(), b.ID()}
	if o, ok := s.orderCache[key]; ok {
		s.cacheHits.Add(1)
		return o
	}
	s.orderQueries.Add(1)
	o, err := s.orc.QueryOrder(oracle.EventOf(a), oracle.EventOf(b), core.Before)
	if err != nil {
		// Unreachable oracle: be conservative, do not execute.
		return core.Concurrent
	}
	s.orderCache[key] = o
	s.orderCache[[2]core.ID{key[1], key[0]}] = o.Invert()
	return o
}

// apply executes one transaction with its queue-wait/apply instrumentation
// around applyOps. The shard's trace token (registered by the
// gatekeeper's Expect before the forward was sent) is released here — the
// last release across all involved shards completes the trace.
func (s *Shard) apply(q queued) {
	tA := time.Now()
	if !q.at.IsZero() {
		s.m.queueWait.Dur(tA.Sub(q.at))
	}
	s.applyOps(q)
	s.m.applyDur.Since(tA)
	if q.trace != 0 {
		if t := s.m.tracer.Lookup(q.trace); t != nil {
			t.Span("shard_queue", q.at, tA)
			t.SpanSince("shard_apply", tA)
			s.m.tracer.Done(t)
		}
	}
}

// applyOps executes one transaction's operations against the multi-version
// graph and the secondary indexes, which consume the same delta stream.
// Operations were validated at the backing store (§4.2); a failure here is
// an ordering bug and is surfaced loudly.
func (s *Shard) applyOps(q queued) {
	s.heat.addOps(q.ops)
	ops := q.ops
	if s.paging {
		ops = s.faultIn(q)
	}
	// The whole transaction under one store-lock acquisition, counters
	// batched per transaction.
	n := s.g.ApplyTx(ops, q.ts, func(op graph.Op, err error) {
		s.reportApplyErr(op, q.ts, err)
	})
	// The index is never paged out: it applies the whole transaction.
	s.idx.ApplyTx(q.ops, q.ts)
	s.opsApplied.Add(uint64(n + len(q.ops) - len(ops)))
	s.txExecuted.Add(1)
}

// faultIn is the apply half of demand paging (§6.1): it pages in every
// vertex q touches that is not resident — unless q itself creates it first
// — and returns the operations left to apply. Commits reach the store
// before shards, so a record read back holds every write ordered at or
// before its stamp: an operation on a marked chain, from q or any later
// transaction, is dropped (counted as applied) unless q orders after the
// mark. The order is Shard.order's, as a later commit may restamp the
// record with a LastTS only the oracle orders after q.
func (s *Shard) faultIn(q queued) []graph.Op {
	for i, op := range q.ops {
		if op.Kind != graph.OpCreateVertex && !s.g.Has(op.Vertex) && !creates(q.ops[:i], op.Vertex) {
			s.pageIn(op.Vertex)
		}
	}
	keep := q.ops[:0:0]
	for _, op := range q.ops {
		if mark, ok := s.g.Mark(op.Vertex); !ok || s.order(q.ts, mark) == core.After {
			keep = append(keep, op)
		}
	}
	return keep
}

// creates reports whether ops create v.
func creates(ops []graph.Op, v graph.VertexID) bool {
	return slices.ContainsFunc(ops, func(op graph.Op) bool { return op.Kind == graph.OpCreateVertex && op.Vertex == v })
}

// reportApplyErr counts and surfaces an apply failure (an ordering bug —
// operations were validated at the backing store).
func (s *Shard) reportApplyErr(op graph.Op, ts core.Timestamp, err error) {
	s.applyErrors.Add(1)
	fmt.Fprintf(os.Stderr, "weaver shard %d: apply %v at %v: %v\n", s.cfg.ID, op.Kind, ts, err)
}

// pageIn faults one vertex record from the backing store into the
// in-memory graph (§6.1) through the marked install, a tombstone too: the
// record may be newer than a reader (graph.View.Truncated). The index is
// never paged. Reports false when the record is absent, unreadable or homed
// elsewhere.
func (s *Shard) pageIn(v graph.VertexID) bool {
	data, _, found, err := s.kv.GetVersioned(graph.VertexKey(v))
	if err != nil || !found {
		return false
	}
	rec, err := graph.DecodeRecord(data)
	if err != nil || rec.Shard != s.cfg.ID {
		return false
	}
	s.g.Install([]*graph.VertexRecord{rec}, true)
	s.pagedIn.Add(1)
	return true
}

// maybeGC collects graph and index versions at gatekeeper 0's cluster
// watermark (wire.GCWatermark, §4.5), through the stores' retire lists.
// gcWM never moves back — a restarted gatekeeper 0 folds from scratch — and
// a zero watermark (HistoryRetention not yet aged) collects nothing.
// Collection runs at gcWM, the value the staleness gate checks: at a
// fresher one, a read could pass the gate and miss collected versions.
func (s *Shard) maybeGC(wm core.Timestamp) {
	if wm.Zero() {
		return
	}
	if s.gcWM.Zero() || s.gcWM.PointwiseLT(wm) {
		s.gcWM = wm
	}
	// Every round collects, whether or not the watermark moved: a pass
	// visits the pending retire-list entries and the chains of those below
	// the watermark, never the whole store.
	t0 := time.Now()
	n := s.g.CollectBefore(s.gcWM)
	// The index prunes at the SAME ratcheted watermark as the graph: the
	// staleness gate that protects graph reads protects index lookups
	// identically, so a lookup that passes it always finds its versions.
	n += s.idx.CollectBefore(s.gcWM)
	s.m.gcSweep.Since(t0)
	s.gcCollected.Add(uint64(n))
	retired := int64(s.g.Retired() + s.idx.Retired())
	s.m.gcRetired.Add(retired - s.retired)
	s.retired = retired
	// Demand paging, eviction half (§6.1): shed cold vertices above the
	// memory cap; they page back in from the backing store on access.
	// The index is deliberately NOT evicted: lookups answer for paged-out
	// vertices without faulting them in, so the index keeps its
	// (GC-bounded) history resident — Config.MaxVertices caps graph
	// version history only.
	if s.paging {
		if over := s.g.NumVertices() - s.cfg.MaxVertices; over > 0 {
			evicted := s.g.EvictBefore(s.gcWM, over)
			s.pagedOut.Add(uint64(len(evicted)))
		}
	}
	// The ordering cache only grows, so it is dropped wholesale past a
	// bound. A dropped order is asked of the oracle again, and the oracle
	// gives the same answer only while it still holds both events: events
	// at or above its prune value, which every transaction still queued
	// here is (this shard's ShardGCReport holds the prune below them). So
	// the reset is safe for the queue-head orders apply decides. A pair
	// the oracle has pruned — a record stamp that Recover or faultIn
	// compares — is decided afresh, possibly the other way.
	if len(s.orderCache) > 1<<20 {
		s.orderCache = make(map[[2]core.ID]core.Order)
	}
}
