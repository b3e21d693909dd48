package graph

import (
	"fmt"
	"slices"
	"sync"

	"weaver/internal/core"
)

// Property is one version of a named attribute. A live version has a zero
// Deleted timestamp; setting a property again supersedes the previous
// version by stamping its Deleted field.
type Property struct {
	Key     string
	Value   string
	Created core.Timestamp
	Deleted core.Timestamp
}

// Edge is a directed out-edge with its version interval and property
// versions.
type Edge struct {
	ID      EdgeID
	From    VertexID
	To      VertexID
	Created core.Timestamp
	Deleted core.Timestamp
	Props   []Property
}

// Vertex holds one incarnation of a vertex: its lifetime interval, its
// property versions, and all out-edges rooted at it (§3.2: a partition is a
// set of vertices plus all outgoing edges rooted at those vertices).
type Vertex struct {
	ID      VertexID
	Created core.Timestamp
	Deleted core.Timestamp
	Props   []Property
	Out     map[EdgeID]*Edge
}

// chain is the full multi-version history of one vertex ID: a list of
// incarnations with disjoint lifetimes, oldest first. Delete-then-recreate
// appends a new incarnation instead of destroying history, so node programs
// reading at old timestamps still see the old incarnation (§4.5).
type chain struct {
	incarnations []*Vertex
	// loadedAt, when non-zero, records that this chain was installed
	// from a record stamped at that timestamp (Install). Writes at or below
	// it are already reflected in the record and must not re-apply.
	loadedAt core.Timestamp
	// marked says the record was read back from the backing store
	// (recovery §4.3, demand paging §6.1): it holds only the vertex's latest
	// state, so this chain's history starts at loadedAt, and a reader below
	// it is refused rather than told the vertex is absent (View.Truncated).
	marked bool
}

func (c *chain) latest() *Vertex {
	if len(c.incarnations) == 0 {
		return nil
	}
	return c.incarnations[len(c.incarnations)-1]
}

// Store is the multi-version graph held in memory by one shard server.
// A single RWMutex guards the vertex map's physical structure. Because
// every object is versioned, readers never block on logical conflicts —
// the lock only protects physical map/slice structure.
//
// Chains have a single writer: the shard event loop applies transactions
// and runs node-program reads between them. Operations that change the map
// (create_vertex, Install, Detach/Attach, GC) take the write lock; every other
// Apply mutates one existing chain under the read lock. Other goroutines
// touch only the map, under the lock (NumVertices for Stats), or run behind
// a fence with applies quiesced (Install, Detach/Attach).
//
// The retire list is written by that one writer too: every place that ends
// a version appends an entry, an apply under the read lock included. That
// is sound only because a store has one writer, the shard event loop: GC
// takes the write lock and Retired runs on the writer's goroutine. A second
// goroutine applying would race here.
type Store struct {
	mu       sync.RWMutex
	vertices map[VertexID]*chain
	// keys, when non-nil, makes the store a projection (NewProjection).
	keys map[string]bool
	// horizon is the pointwise max of every mark installed or attached
	// here (Horizon).
	horizon core.Timestamp
	// retired lists, in the order versions ended, the vertex whose chain
	// holds each ended version and its end stamp: the only chains GC visits
	// (CollectBeforeFunc). An entry whose chain was since detached, evicted
	// or replaced is stale; sweeping that vertex's chain, if any, is safe.
	retired []retirement
	// swept counts the chains GC has visited (Swept).
	swept uint64
}

// retirement is one retire-list entry: vid's chain holds a version that
// ended at end.
type retirement struct {
	vid VertexID
	end core.Timestamp
}

// retire appends an entry for a version of vid that ended at end.
func (s *Store) retire(vid VertexID, end core.Timestamp) {
	s.retired = append(s.retired, retirement{vid, end})
}

// NewStore returns an empty multi-version graph store.
func NewStore() *Store {
	return &Store{vertices: make(map[VertexID]*chain)}
}

// NewProjection returns a store that keeps only vertex incarnations and the
// versions of the given vertex property keys: edge operations, other
// properties and record edges are dropped on the way in. Visibility, record
// installs, GC and Detach/Attach are the full store's. The secondary index
// (internal/index) keeps its history in one.
func NewProjection(keys []string) *Store {
	s := NewStore()
	s.keys = make(map[string]bool, len(keys))
	for _, k := range keys {
		s.keys[k] = true
	}
	return s
}

// projects reports whether a projection keeps op.
func (s *Store) projects(op Op) bool {
	switch op.Kind {
	case OpCreateVertex, OpDeleteVertex:
		return true
	case OpSetVertexProp, OpDelVertexProp:
		return s.keys[op.Key]
	}
	return false
}

// NumVertices returns the number of vertex IDs with at least one version.
func (s *Store) NumVertices() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.vertices)
}

// Apply executes one write operation stamped with the transaction
// timestamp ts. Operations arrive pre-validated by the gatekeeper against
// the backing store (§4.2), so failures here indicate an ordering bug; they
// are returned for the shard to surface loudly.
func (s *Store) Apply(op Op, ts core.Timestamp) (err error) {
	s.ApplyTx([]Op{op}, ts, func(_ Op, e error) { err = e })
	return err
}

// ApplyTx applies one whole transaction under a single lock acquisition —
// the shard apply hot path. The exclusive lock is taken only when the
// transaction may insert into the vertex map (create_vertex). Failed
// operations are reported through onErr; the return value counts
// successful applies.
func (s *Store) ApplyTx(ops []Op, ts core.Timestamp, onErr func(Op, error)) int {
	exclusive := false
	for i := range ops {
		if ops[i].Kind == OpCreateVertex {
			exclusive = true
			break
		}
	}
	if exclusive {
		s.mu.Lock()
		defer s.mu.Unlock()
	} else {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	applied := 0
	for i := range ops {
		if err := s.applyLocked(ops[i], ts); err != nil {
			if onErr != nil {
				onErr(ops[i], err)
			}
		} else {
			applied++
		}
	}
	return applied
}

// applyLocked executes one operation; the caller holds mu (exclusively for
// create_vertex, shared otherwise).
func (s *Store) applyLocked(op Op, ts core.Timestamp) error {
	if s.keys != nil && !s.projects(op) {
		return nil
	}
	if ch := s.vertices[op.Vertex]; ch != nil && !ch.loadedAt.Zero() {
		if cmp := ts.Compare(ch.loadedAt); cmp == core.Before || cmp == core.Equal {
			// The chain was loaded from a record that already includes
			// this write (records are written to the backing store
			// before forwarding); re-applying would double it.
			return nil
		}
	}
	switch op.Kind {
	case OpCreateVertex:
		ch := s.vertices[op.Vertex]
		if ch == nil {
			ch = &chain{}
			s.vertices[op.Vertex] = ch
		}
		if v := ch.latest(); v != nil && v.Deleted.Zero() {
			return fmt.Errorf("graph: create_vertex %q: already exists", op.Vertex)
		}
		v := &Vertex{ID: op.Vertex, Created: ts}
		if s.keys == nil {
			v.Out = make(map[EdgeID]*Edge)
		}
		ch.incarnations = append(ch.incarnations, v)
	case OpDeleteVertex:
		v := s.live(op.Vertex)
		if v == nil {
			return fmt.Errorf("graph: delete_vertex %q: not live", op.Vertex)
		}
		v.Deleted = ts
		for _, e := range v.Out {
			if e.Deleted.Zero() {
				e.Deleted = ts
			}
		}
		s.retire(op.Vertex, ts)
	case OpCreateEdge:
		v := s.live(op.Vertex)
		if v == nil {
			return fmt.Errorf("graph: create_edge on %q: vertex not live", op.Vertex)
		}
		if _, dup := v.Out[op.Edge]; dup {
			return fmt.Errorf("graph: create_edge %q: duplicate edge id", op.Edge)
		}
		v.Out[op.Edge] = &Edge{ID: op.Edge, From: op.Vertex, To: op.To, Created: ts}
	case OpDeleteEdge:
		v := s.live(op.Vertex)
		if v == nil {
			return fmt.Errorf("graph: delete_edge on %q: vertex not live", op.Vertex)
		}
		e, ok := v.Out[op.Edge]
		if !ok || !e.Deleted.Zero() {
			return fmt.Errorf("graph: delete_edge %q: not live", op.Edge)
		}
		e.Deleted = ts
		s.retire(op.Vertex, ts)
	case OpSetVertexProp:
		v := s.live(op.Vertex)
		if v == nil {
			return fmt.Errorf("graph: set_prop on %q: vertex not live", op.Vertex)
		}
		s.endProp(op.Vertex, v.Props, op.Key, ts)
		v.Props = append(v.Props, Property{Key: op.Key, Value: op.Value, Created: ts})
	case OpDelVertexProp:
		v := s.live(op.Vertex)
		if v == nil {
			return fmt.Errorf("graph: del_prop on %q: vertex not live", op.Vertex)
		}
		s.endProp(op.Vertex, v.Props, op.Key, ts)
	case OpSetEdgeProp:
		e, err := s.liveEdge(op.Vertex, op.Edge)
		if err != nil {
			return err
		}
		s.endProp(op.Vertex, e.Props, op.Key, ts)
		e.Props = append(e.Props, Property{Key: op.Key, Value: op.Value, Created: ts})
	case OpDelEdgeProp:
		e, err := s.liveEdge(op.Vertex, op.Edge)
		if err != nil {
			return err
		}
		s.endProp(op.Vertex, e.Props, op.Key, ts)
	default:
		return fmt.Errorf("graph: unknown op kind %v", op.Kind)
	}
	return nil
}

// live returns the currently-live incarnation of vid, or nil.
func (s *Store) live(vid VertexID) *Vertex {
	ch := s.vertices[vid]
	if ch == nil {
		return nil
	}
	v := ch.latest()
	if v == nil || !v.Deleted.Zero() {
		return nil
	}
	return v
}

func (s *Store) liveEdge(vid VertexID, eid EdgeID) (*Edge, error) {
	v := s.live(vid)
	if v == nil {
		return nil, fmt.Errorf("graph: edge op on %q: vertex not live", vid)
	}
	e, ok := v.Out[eid]
	if !ok || !e.Deleted.Zero() {
		return nil, fmt.Errorf("graph: edge %q: not live", eid)
	}
	return e, nil
}

// endProp ends the live version of key in props, one of vid's chain, at ts
// and retires it. A set then appends the new version.
func (s *Store) endProp(vid VertexID, props []Property, key string, ts core.Timestamp) {
	for i := range props {
		if props[i].Key == key && props[i].Deleted.Zero() {
			props[i].Deleted = ts
			s.retire(vid, ts)
		}
	}
}

// Load installs one record unmarked (Install).
func (s *Store) Load(rec *VertexRecord) { s.Install([]*VertexRecord{rec}, false) }

// LoadAll installs a batch of records unmarked (Install).
func (s *Store) LoadAll(recs []*VertexRecord) { s.Install(recs, false) }

// Install is the one way a record becomes a version chain, a batch under one
// lock acquisition: each record replaces its vertex's chain with one whose
// history starts at the record's stamp, a tombstone's with no visible
// incarnation. marked says the record was read back from the backing store
// (recovery §4.3, demand paging §6.1): a reader below the stamp is then
// refused (View.Truncated, Horizon), not told — as after bulk ingest, whose
// fresh vertices really did not exist before — that there is no vertex.
func (s *Store) Install(recs []*VertexRecord, marked bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range recs {
		s.vertices[rec.ID] = s.chainOf(rec, marked)
		if rec.Deleted {
			s.retire(rec.ID, rec.LastTS)
		}
		if marked {
			s.horizon = core.PointwiseMax(s.horizon, rec.LastTS)
		}
	}
}

// Horizon returns the pointwise max of every mark installed or attached
// here: the refusal bound for a reader that enumerates vertices, and so
// cannot ask View.Truncated of those it does not find (an index lookup).
func (s *Store) Horizon() core.Timestamp {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.horizon
}

// Mark returns the stamp of id's marked install, if its chain has one.
func (s *Store) Mark(id VertexID) (core.Timestamp, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ch := s.vertices[id]; ch != nil && ch.marked {
		return ch.loadedAt, true
	}
	return core.Timestamp{}, false
}

// chainOf builds the chain Install puts in place for rec.
func (s *Store) chainOf(rec *VertexRecord, marked bool) *chain {
	v := &Vertex{ID: rec.ID, Created: rec.LastTS}
	ch := &chain{incarnations: []*Vertex{v}, loadedAt: rec.LastTS, marked: marked}
	if rec.Deleted {
		v.Deleted = rec.LastTS
		return ch
	}
	for k, val := range rec.Props {
		if s.keys == nil || s.keys[k] {
			v.Props = append(v.Props, Property{Key: k, Value: val, Created: rec.LastTS})
		}
	}
	if s.keys == nil {
		// One slab for the record's edges: bulk ingest and recovery
		// install millions of edges, and per-edge allocations are the hot
		// spot.
		v.Out = make(map[EdgeID]*Edge, len(rec.Edges))
		slab := make([]Edge, len(rec.Edges))
		i := 0
		for eid, er := range rec.Edges {
			e := &slab[i]
			i++
			e.ID, e.From, e.To, e.Created = eid, rec.ID, er.To, rec.LastTS
			for k, val := range er.Props {
				e.Props = append(e.Props, Property{Key: k, Value: val, Created: rec.LastTS})
			}
			v.Out[eid] = e
		}
	}
	return ch
}

// lifetimes calls fn with the lifetime of every version in the chain:
// incarnations, their properties, their edges and the edges' properties.
func (c *chain) lifetimes(fn func(created, deleted core.Timestamp)) {
	for _, v := range c.incarnations {
		fn(v.Created, v.Deleted)
		for i := range v.Props {
			fn(v.Props[i].Created, v.Props[i].Deleted)
		}
		for _, e := range v.Out {
			fn(e.Created, e.Deleted)
			for i := range e.Props {
				fn(e.Props[i].Created, e.Props[i].Deleted)
			}
		}
	}
}

// LatestWrites returns the maximal write stamps of id's resident history:
// every non-zero stamp in its lifetimes that no other is vclock-after, equal
// stamps once. Two concurrent last writes are both returned, whichever
// order the chain holds them in; nil when the vertex is not resident. Shard
// re-recovery compares the backing store's last-update stamp against them
// to find committed writes the crashed gatekeeper never forwarded.
func (s *Store) LatestWrites(id VertexID) []core.Timestamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.vertices[id]
	if ch == nil {
		return nil
	}
	var tops []core.Timestamp
	add := func(t core.Timestamp) {
		if t.Zero() || slices.ContainsFunc(tops, func(m core.Timestamp) bool {
			o := t.Compare(m)
			return o == core.Before || o == core.Equal
		}) {
			return
		}
		tops = slices.DeleteFunc(tops, func(m core.Timestamp) bool { return m.Compare(t) == core.Before })
		tops = append(tops, t)
	}
	ch.lifetimes(func(created, deleted core.Timestamp) {
		add(created)
		add(deleted)
	})
	return tops
}

// writtenBefore reports whether the chain holds a write and every write in
// it — each non-zero stamp in its lifetimes — is strictly pointwise below
// wm (the test CollectBefore uses). One write concurrent with wm keeps it.
func (c *chain) writtenBefore(wm core.Timestamp) bool {
	some, all := false, true
	c.lifetimes(func(created, deleted core.Timestamp) {
		for _, t := range [2]core.Timestamp{created, deleted} {
			if !t.Zero() {
				some = true
				all = all && t.PointwiseLT(wm)
			}
		}
	})
	return some && all
}

// EvictBefore drops up to limit whole vertex histories whose every write
// happened strictly before the watermark — the paging-out half of demand
// paging (§6.1). Such vertices are safe to drop: the backing store holds
// their latest committed state, and every active or future reader's
// timestamp is at or past the watermark, so paging the record back in at
// its last-update timestamp reproduces exactly what those readers may see.
// "Every write" is every stamp in the chain, not one maximum: two stores
// holding the same history evict the same vertices. Returns the evicted
// vertex IDs.
func (s *Store) EvictBefore(watermark core.Timestamp, limit int) []VertexID {
	if limit <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []VertexID
	for vid, ch := range s.vertices {
		if len(out) >= limit {
			break
		}
		if ch.writtenBefore(watermark) {
			delete(s.vertices, vid)
			out = append(out, vid)
		}
	}
	return out
}

// History is an opaque handle to one vertex's full resident version chain,
// produced by Detach and consumed by Attach. It lets vertex migration move
// the complete multi-version history between shard stores — so historical
// reads of a migrated vertex keep answering at its new home — without
// exposing the chain representation.
type History struct {
	id VertexID
	ch *chain
}

// Detach removes the vertex's entire resident version chain from the store
// and returns it for installation elsewhere (Attach). Ownership transfers
// with the handle: nothing is copied, so the caller must guarantee that no
// transaction is applying and no node program is reading on either store
// (migration runs behind the gatekeeper pause with applies quiesced and
// programs drained). Returns ok=false if the vertex has no resident
// versions (e.g. paged out).
func (s *Store) Detach(v VertexID) (History, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.vertices[v]
	if ch == nil {
		return History{}, false
	}
	delete(s.vertices, v)
	return History{id: v, ch: ch}, true
}

// Attach installs a version chain detached from another store, replacing
// any resident versions of the vertex; a marked chain brings its mark to
// Horizon, and each distinct end stamp among its ended versions to the
// retire list. The same quiescence contract as Detach applies.
func (s *Store) Attach(h History) {
	if h.ch == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vertices[h.id] = h.ch
	var last core.Timestamp // skips runs of one stamp (a vertex delete's edges)
	h.ch.lifetimes(func(_, deleted core.Timestamp) {
		if !deleted.Zero() && !(deleted.PointwiseLE(last) && last.PointwiseLE(deleted)) {
			s.retire(h.id, deleted)
			last = deleted
		}
	})
	if h.ch.marked {
		s.horizon = core.PointwiseMax(s.horizon, h.ch.loadedAt)
	}
}

// Has reports whether any version of the vertex is resident.
func (s *Store) Has(id VertexID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.vertices[id]
	return ok
}

// Versions calls fn with every resident vertex property version of id —
// every incarnation, superseded versions included — under the read lock;
// fn must not call back into the store.
func (s *Store) Versions(id VertexID, fn func(*Property)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ch := s.vertices[id]; ch != nil {
		for _, v := range ch.incarnations {
			for i := range v.Props {
				fn(&v.Props[i])
			}
		}
	}
}

// CollectBefore garbage-collects versions that ended strictly before the
// watermark (§4.5): property and edge versions whose Deleted precedes it,
// and vertex incarnations deleted before it. "Before" is the pointwise
// test (core.Timestamp.PointwiseLT), not happens-before: the watermark is
// a synthetic PointwiseMin combination whose owner identity is arbitrary,
// and Compare's identity short-circuit could spuriously report a strictly
// dominated version as Equal and keep it forever — observed when a pinned
// snapshot freezes a gatekeeper's report at a vector that collides with a
// committed transaction's (owner, counter). Returns the number of objects
// removed.
//
// A pass visits only what died: it walks the retire list, sweeps the chain
// of each entry that ended below the watermark (each chain once) and keeps
// every other entry, in order. Its cost is the pending retirements plus the
// chains swept, not the store's size.
func (s *Store) CollectBefore(watermark core.Timestamp) int {
	return s.CollectBeforeFunc(watermark, func(VertexID, *Property) {})
}

// CollectBeforeFunc is CollectBefore, also handing dropped every vertex
// property version it removes, those of removed incarnations included.
// dropped runs under the write lock and must not call back into the store.
func (s *Store) CollectBeforeFunc(watermark core.Timestamp, dropped func(VertexID, *Property)) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	var swept map[VertexID]bool
	pending := s.retired[:0]
	for _, r := range s.retired {
		if !r.end.PointwiseLT(watermark) {
			pending = append(pending, r)
			continue
		}
		if swept[r.vid] {
			continue
		}
		if swept == nil {
			swept = make(map[VertexID]bool)
		}
		swept[r.vid] = true
		if ch := s.vertices[r.vid]; ch != nil {
			removed = s.sweep(r.vid, ch, watermark, removed, dropped)
			s.swept++
		}
	}
	clear(s.retired[len(pending):])
	s.retired = pending
	return removed
}

// sweep removes the versions of vid's chain that ended before wm, and the
// chain itself once no incarnation is left.
func (s *Store) sweep(vid VertexID, ch *chain, wm core.Timestamp, removed int, dropped func(VertexID, *Property)) int {
	kept := ch.incarnations[:0]
	for _, v := range ch.incarnations {
		if !v.Deleted.Zero() && v.Deleted.PointwiseLT(wm) {
			removed += 1 + len(v.Out)
			for i := range v.Props {
				dropped(vid, &v.Props[i])
			}
			continue
		}
		v.Props, removed = gcProps(v.Props, wm, removed, vid, dropped)
		for eid, e := range v.Out {
			if !e.Deleted.Zero() && e.Deleted.PointwiseLT(wm) {
				delete(v.Out, eid)
				removed++
				continue
			}
			e.Props, removed = gcProps(e.Props, wm, removed, vid, func(VertexID, *Property) {})
		}
		kept = append(kept, v)
	}
	ch.incarnations = kept
	if len(ch.incarnations) == 0 {
		delete(s.vertices, vid)
	}
	return removed
}

// Retired returns the number of retire-list entries still pending. Call it
// from the writer's goroutine: applies append under the read lock.
func (s *Store) Retired() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.retired)
}

// Swept returns the number of chains GC has visited in this store.
func (s *Store) Swept() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.swept
}

// gcProps removes the versions that ended before wm, handing each to
// dropped.
func gcProps(props []Property, wm core.Timestamp, removed int, vid VertexID, dropped func(VertexID, *Property)) ([]Property, int) {
	n := 0
	for i := range props {
		if p := &props[i]; !p.Deleted.Zero() && p.Deleted.PointwiseLT(wm) {
			removed++
			dropped(vid, p)
			continue
		}
		if n != i {
			props[n] = props[i]
		}
		n++
	}
	return props[:n], removed
}
