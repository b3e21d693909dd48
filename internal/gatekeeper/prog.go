package gatekeeper

import (
	"errors"
	"fmt"
	"time"

	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/plan"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// ErrProgTimeout is returned when a node program fails to complete within
// the configured deadline.
var ErrProgTimeout = errors.New("gatekeeper: node program timed out")

// ErrProgFailed wraps errors raised by a node program visit on a shard.
var ErrProgFailed = errors.New("gatekeeper: node program failed")

// ErrStaleSnapshot is returned by historical queries whose read timestamp
// has fallen behind the cluster GC watermark: the versions the query would
// need may already be collected, so shards refuse to answer rather than
// return wrong data (§4.5). Reads inside Config.HistoryRetention, and
// reads at pinned snapshots (PinSnapshot), never hit this.
var ErrStaleSnapshot = errors.New("gatekeeper: snapshot timestamp behind GC watermark")

// The read path. A read is what to evaluate — a node program (this file) or
// a predicate conjunction (lookup.go) — plus the timestamp to evaluate it
// at, zero meaning "mint a fresh one": a current read and a historical
// query (§4.5) are the same call. Every read in flight is one pendingRead in
// Gatekeeper.reads — register, finish (exactly once), await — and while
// there it counts toward OutstandingPrograms and holds the GC watermark.

// readKind says which payload a pendingRead carries.
type readKind int

const (
	progRead   readKind = iota // a node program: hop accounting
	lookupRead                 // one scatter round of an index lookup
)

// pendingRead is one read in flight. ts and done are set by register; the
// payload fields of its kind are set by the caller before registering.
type pendingRead struct {
	kind readKind
	// ts is the read's own fresh timestamp — its identity (QID) and its hold
	// on the GC watermark — not the timestamp it reads AT, so any number of
	// reads can share one historical snapshot.
	ts   core.Timestamp
	err  error
	done chan struct{}

	// progRead: termination detection and gather.
	pending map[uint64]struct{} // spawned hops not yet consumed
	early   map[uint64]struct{} // consumptions seen before their spawn
	results [][]byte
	shards  map[int]struct{} // shards that received work (for ProgFinish)

	// lookupRead: the round's shard set and gather.
	remaining map[int]struct{} // shards that have not answered yet
	vertices  []graph.VertexID
	contacts  []plan.ShardContact // per-shard reply accounting for EXPLAIN
}

// admit takes the pause read lock for issuing an operation, unless the
// gatekeeper has stopped. For a read the lock gates issuance only — never
// the completion wait, or a read stranded on a crashed shard would stall
// the epoch barrier that recovers that very shard (§4.3) — and is taken
// BEFORE the read registers, so a read parked at the gate during a
// migration pause is invisible to the drain and launches afterwards with a
// post-migration timestamp.
func (g *Gatekeeper) admit() error {
	g.pause.RLock()
	select {
	case <-g.stop:
		g.pause.RUnlock()
		return ErrStopped
	default:
		return nil
	}
}

// register mints p's timestamp and inserts it into the pending-read map in
// ONE critical section. The two must be atomic with respect to GC
// reporting: sendGCReport holds the watermark below every registered read,
// so a report slipping between a tick and a later registration could
// advance the cluster watermark past the fresh timestamp and make shards
// reject the brand-new read as a stale snapshot. Callers must hold the
// pause read lock (admit): a read registered while blocked on the pause
// gate would deadlock the migration drain that waits for registered reads
// to finish.
func (g *Gatekeeper) register(p *pendingRead) {
	p.done = make(chan struct{})
	g.mu.Lock()
	p.ts = g.clock.Tick()
	g.reads[p.ts.ID()] = p
	g.mu.Unlock()
	g.readsStarted[p.kind].Add(1)
}

// finish completes a read exactly once: records the error, wakes the
// waiter, and tells every shard a program involved to garbage collect its
// per-vertex state (§4.5).
func (g *Gatekeeper) finish(p *pendingRead, err error) {
	qid := p.ts.ID()
	g.mu.Lock()
	if _, live := g.reads[qid]; !live {
		g.mu.Unlock()
		return
	}
	delete(g.reads, qid)
	p.err = err
	g.mu.Unlock()
	g.readsFinished[p.kind].Add(1)
	for s := range p.shards { // stable: p is no longer reachable for deltas
		g.ep.Send(transport.ShardAddr(s), wire.ProgFinish{QID: qid})
	}
	close(p.done)
}

// await blocks until p finishes, failing it on ProgTimeout or Stop, and
// returns its error.
func (g *Gatekeeper) await(p *pendingRead) error {
	select {
	case <-p.done:
	case <-time.After(g.cfg.ProgTimeout):
		g.finish(p, ErrProgTimeout)
	case <-g.stop:
		g.finish(p, ErrStopped)
	}
	<-p.done
	return p.err
}

// pinRead resolves a read timestamp — zero mints a fresh one, strictly
// after every transaction committed through this gatekeeper — and pins it,
// in one critical section for the same reason as register. The pin keeps a
// snapshot answerable ACROSS the phases of a multi-phase read (lookup
// rounds, RunProgramWhere), each of which registers its own pendingRead.
// Every pinRead needs a matching Unpin.
func (g *Gatekeeper) pinRead(readTS core.Timestamp) core.Timestamp {
	g.mu.Lock()
	defer g.mu.Unlock()
	if readTS.Zero() {
		readTS = g.clock.Tick()
	}
	g.pinLocked(readTS)
	return readTS
}

// RunProgram launches the named node program at the start vertices and
// blocks until it terminates everywhere, returning the values the program
// returned across all visits (§2.3 gather) and the timestamp it read at.
// The program reads the graph snapshot at readTS (§4.1), which must have
// been obtained from this cluster (a previous commit's timestamp, Snapshot,
// PinSnapshot); a ZERO readTS reads at a fresh timestamp minted here — the
// strictly serializable current read. Returns an error wrapping
// ErrStaleSnapshot when readTS is behind the GC watermark.
func (g *Gatekeeper) RunProgram(readTS core.Timestamp, prog string, params []byte, start []graph.VertexID) ([][]byte, core.Timestamp, error) {
	if err := g.admit(); err != nil {
		return nil, readTS, err
	}
	// One trace per coordinated program: the gatekeeper holds the only
	// completion token (hop fan-out is dynamic, so shards do not Done the
	// trace — they just echo the ID on ProgHops/ProgDelta, keeping
	// cross-shard hops attributable).
	tr := g.m.tracer.Start()
	defer g.m.tracer.Done(tr)
	defer tr.SpanSince("prog_run", time.Now())

	// The initial hops are built before the read registers: resolving home
	// shards touches the backing store, and placement cannot change under
	// the pause read lock.
	p := &pendingRead{
		kind:    progRead,
		pending: make(map[uint64]struct{}, len(start)),
		early:   make(map[uint64]struct{}),
		shards:  make(map[int]struct{}),
	}
	byShard := make(map[int][]wire.Hop)
	for _, v := range start {
		id := g.hopSeq.Add(1) | coordinatorHopBit
		s := g.lookupShard(v)
		p.pending[id] = struct{}{}
		p.shards[s] = struct{}{}
		byShard[s] = append(byShard[s], wire.Hop{ID: id, Vertex: v, Program: prog, Params: params, Origin: -1})
	}
	g.register(p)
	if readTS.Zero() {
		readTS = p.ts
	}
	if len(start) == 0 {
		g.finish(p, nil) // nothing to visit
	}
	for s, hops := range byShard {
		g.m.hopFanout.Observe(uint64(len(hops)))
		err := g.ep.Send(transport.ShardAddr(s), wire.ProgHops{
			QID:         p.ts.ID(),
			TS:          p.ts,
			ReadTS:      readTS,
			Coordinator: g.ep.Addr(),
			Hops:        hops,
			Trace:       tr.ID(),
		})
		if err != nil {
			g.finish(p, fmt.Errorf("%w: shard %d unreachable: %v", ErrProgFailed, s, err))
			break
		}
	}
	g.pause.RUnlock()

	if err := g.await(p); err != nil {
		return nil, readTS, err
	}
	return p.results, readTS, nil
}

// RunProgramWhere launches a node program whose start set is an index
// selector instead of a hand-carried vertex list: the cluster-wide index
// lookup for key=value runs at readTS (zero = a fresh timestamp minted
// here), and the program then reads the graph at the SAME timestamp — so
// the start set and everything the program sees are one consistent
// snapshot (no writer can sneak a vertex in or out between the two phases).
// The timestamp is pinned for the duration, so the two-phase read can never
// age past the GC watermark between its phases. An empty match set returns
// (nil, ts, nil) without launching the program.
func (g *Gatekeeper) RunProgramWhere(readTS core.Timestamp, key, value, prog string, params []byte) ([][]byte, core.Timestamp, error) {
	ts := g.pinRead(readTS)
	defer g.Unpin(ts)
	start, _, err := g.Lookup(ts, LookupOptions{Wheres: wire.Eq(key, value)})
	if err != nil || len(start) == 0 {
		return nil, ts, err
	}
	return g.RunProgram(ts, prog, params, start)
}

// lookupShard resolves a vertex's home shard, preferring the authoritative
// backing-store record over the static directory.
func (g *Gatekeeper) lookupShard(v graph.VertexID) int {
	if rec, _, ok, _ := g.ReadVertex(v); ok {
		return rec.Shard
	}
	return g.dir.Lookup(v)
}

// handleProgDelta folds one shard progress report into the coordinator
// state: hops consumed locally shrink the outstanding count, hops forwarded
// to other shards grow it, and returned values accumulate. Outstanding
// reaching zero terminates the query (§2.3).
func (g *Gatekeeper) handleProgDelta(m wire.ProgDelta, from transport.Addr) {
	g.mu.Lock()
	p, ok := g.reads[m.QID]
	if !ok || p.kind != progRead {
		g.mu.Unlock()
		return // late delta for a finished/timed-out query
	}
	if s, found := shardIndex(from); found {
		p.shards[s] = struct{}{}
	}
	if m.Err != "" || m.ErrCode != wire.ErrCodeNone {
		g.mu.Unlock()
		g.finish(p, replyErr(m.ErrCode, m.Err))
		return
	}
	p.results = append(p.results, m.Results...)
	// Match spawn records against consumption reports. A consumption that
	// arrives before its spawn record parks in `early`; the query is done
	// only when every spawned hop is consumed and nothing is parked.
	for _, id := range m.SpawnedIDs {
		if _, wasEarly := p.early[id]; wasEarly {
			delete(p.early, id)
			continue
		}
		p.pending[id] = struct{}{}
	}
	for _, id := range m.ConsumedIDs {
		if _, ok := p.pending[id]; ok {
			delete(p.pending, id)
			continue
		}
		p.early[id] = struct{}{}
	}
	finished := len(p.pending) == 0 && len(p.early) == 0
	g.mu.Unlock()
	if finished {
		g.finish(p, nil)
	}
}

// replyErr turns a shard's error reply into the typed error its code names
// (error strings alone cannot round-trip errors.Is).
func replyErr(code int, msg string) error {
	base := ErrProgFailed
	switch code {
	case wire.ErrCodeStaleSnapshot:
		base = ErrStaleSnapshot
	case wire.ErrCodeNoIndex:
		base = ErrNoIndex
	}
	return fmt.Errorf("%w: %s", base, msg)
}

// shardIndex parses a shard address back to its index.
func shardIndex(a transport.Addr) (int, bool) {
	var i int
	if n, err := fmt.Sscanf(string(a), "shard/%d", &i); err == nil && n == 1 {
		return i, true
	}
	return 0, false
}
