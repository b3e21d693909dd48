package graph

import (
	"fmt"
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
	// from a backing-store record snapshotted at that timestamp
	// (recovery §4.3, demand paging §6.1). Writes at or below it are
	// already reflected in the snapshot and must not re-apply.
	loadedAt core.Timestamp
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
// (create_vertex, Load, Detach/Attach, GC) take the write lock; every other
// Apply mutates one existing chain under the read lock. Other goroutines
// touch only the map, under the lock (NumVertices for Stats), or run behind
// a fence with applies quiesced (Install, Detach/Attach).
type Store struct {
	mu       sync.RWMutex
	vertices map[VertexID]*chain
}

// NewStore returns an empty multi-version graph store.
func NewStore() *Store {
	return &Store{vertices: make(map[VertexID]*chain)}
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
func (s *Store) Apply(op Op, ts core.Timestamp) error {
	if op.Kind == OpCreateVertex {
		s.mu.Lock()
		defer s.mu.Unlock()
	} else {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	return s.applyLocked(op, ts)
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
		ch.incarnations = append(ch.incarnations, &Vertex{ID: op.Vertex, Created: ts, Out: make(map[EdgeID]*Edge)})
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
	case OpSetVertexProp:
		v := s.live(op.Vertex)
		if v == nil {
			return fmt.Errorf("graph: set_prop on %q: vertex not live", op.Vertex)
		}
		v.Props = setProp(v.Props, op.Key, op.Value, ts)
	case OpDelVertexProp:
		v := s.live(op.Vertex)
		if v == nil {
			return fmt.Errorf("graph: del_prop on %q: vertex not live", op.Vertex)
		}
		v.Props = delProp(v.Props, op.Key, ts)
	case OpSetEdgeProp:
		e, err := s.liveEdge(op.Vertex, op.Edge)
		if err != nil {
			return err
		}
		e.Props = setProp(e.Props, op.Key, op.Value, ts)
	case OpDelEdgeProp:
		e, err := s.liveEdge(op.Vertex, op.Edge)
		if err != nil {
			return err
		}
		e.Props = delProp(e.Props, op.Key, ts)
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

// setProp supersedes the live version of key (if any) at ts and appends the
// new version.
func setProp(props []Property, key, value string, ts core.Timestamp) []Property {
	for i := range props {
		if props[i].Key == key && props[i].Deleted.Zero() {
			props[i].Deleted = ts
		}
	}
	return append(props, Property{Key: key, Value: value, Created: ts})
}

func delProp(props []Property, key string, ts core.Timestamp) []Property {
	for i := range props {
		if props[i].Key == key && props[i].Deleted.Zero() {
			props[i].Deleted = ts
		}
	}
	return props
}

// Load installs a vertex recovered from the backing store (§4.3). The whole
// record becomes visible at its last-update timestamp — older version
// history is not reconstructed, which is safe because any operation that
// could have observed it is re-executed with a fresh (later) timestamp
// after recovery.
func (s *Store) Load(rec *VertexRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loadLocked(rec)
}

// LoadAll installs a batch of records under one lock acquisition — the
// shard-side half of bulk ingest (snapshot segments) and recovery.
func (s *Store) LoadAll(recs []*VertexRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range recs {
		s.loadLocked(rec)
	}
}

func (s *Store) loadLocked(rec *VertexRecord) {
	v := &Vertex{ID: rec.ID, Created: rec.LastTS, Out: make(map[EdgeID]*Edge, len(rec.Edges))}
	for k, val := range rec.Props {
		v.Props = append(v.Props, Property{Key: k, Value: val, Created: rec.LastTS})
	}
	// One slab for the record's edges: bulk ingest and recovery install
	// millions of edges, and per-edge allocations are the hot spot.
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
	s.vertices[rec.ID] = &chain{incarnations: []*Vertex{v}, loadedAt: rec.LastTS}
}

// maxTS returns the latest write timestamp anywhere in the chain.
func (c *chain) maxTS() core.Timestamp {
	var max core.Timestamp
	upd := func(t core.Timestamp) {
		if t.Zero() {
			return
		}
		if max.Zero() || max.Compare(t) == core.Before {
			max = t
		}
	}
	for _, v := range c.incarnations {
		upd(v.Created)
		upd(v.Deleted)
		for i := range v.Props {
			upd(v.Props[i].Created)
			upd(v.Props[i].Deleted)
		}
		for _, e := range v.Out {
			upd(e.Created)
			upd(e.Deleted)
			for i := range e.Props {
				upd(e.Props[i].Created)
				upd(e.Props[i].Deleted)
			}
		}
	}
	return max
}

// LastWrite returns the latest write timestamp recorded anywhere in id's
// version history, or the zero timestamp when the vertex is not resident.
// Shard re-recovery compares it against the backing store's last-update
// stamp to find committed writes the crashed gatekeeper never forwarded.
func (s *Store) LastWrite(id VertexID) core.Timestamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.vertices[id]
	if ch == nil {
		return core.Timestamp{}
	}
	return ch.maxTS()
}

// EvictBefore drops up to limit whole vertex histories whose every write
// happened strictly before the watermark — the paging-out half of demand
// paging (§6.1). Such vertices are safe to drop: the backing store holds
// their latest committed state, and every active or future reader's
// timestamp is at or past the watermark, so paging the record back in at
// its last-update timestamp reproduces exactly what those readers may see.
// Returns the evicted vertex IDs.
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
		if mt := ch.maxTS(); !mt.Zero() && mt.Compare(watermark) == core.Before {
			delete(s.vertices, vid)
			out = append(out, vid)
		}
	}
	return out
}

// Remove drops the entire resident version history of one vertex — the
// source-shard half of vertex migration (§4.6). Like recovery and demand
// paging, migration truncates history to the last committed record: the
// backing store holds that record (now homed elsewhere), so dropping the
// local chain leaves nothing unreachable to future readers, whose hops
// route to the new home. Callers must guarantee no conflicting transaction
// is applying and no node program is reading (gatekeepers paused, applies
// quiesced, programs drained). Reports whether the vertex was resident.
func (s *Store) Remove(v VertexID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.vertices[v]
	delete(s.vertices, v)
	return ok
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

// ID returns the vertex the history belongs to.
func (h History) ID() VertexID { return h.id }

// Detach removes the vertex's entire resident version chain from the store
// and returns it for installation elsewhere (Attach). Ownership transfers
// with the handle: nothing is copied, so the caller must guarantee — as
// with Remove — that no transaction is applying and no node program is
// reading on either store (migration runs behind the gatekeeper pause with
// applies quiesced and programs drained). Returns ok=false if the vertex
// has no resident versions (e.g. paged out).
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
// any resident versions of the vertex. The same quiescence contract as
// Detach applies.
func (s *Store) Attach(h History) {
	if h.ch == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vertices[h.id] = h.ch
}

// Has reports whether any version of the vertex is resident.
func (s *Store) Has(id VertexID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.vertices[id]
	return ok
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
func (s *Store) CollectBefore(watermark core.Timestamp) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for vid, ch := range s.vertices {
		kept := ch.incarnations[:0]
		for _, v := range ch.incarnations {
			if !v.Deleted.Zero() && v.Deleted.PointwiseLT(watermark) {
				removed += 1 + len(v.Out)
				continue
			}
			v.Props, removed = gcProps(v.Props, watermark, removed)
			for eid, e := range v.Out {
				if !e.Deleted.Zero() && e.Deleted.PointwiseLT(watermark) {
					delete(v.Out, eid)
					removed++
					continue
				}
				e.Props, removed = gcProps(e.Props, watermark, removed)
			}
			kept = append(kept, v)
		}
		ch.incarnations = kept
		if len(ch.incarnations) == 0 {
			delete(s.vertices, vid)
		}
	}
	return removed
}

func gcProps(props []Property, wm core.Timestamp, removed int) ([]Property, int) {
	out := props[:0]
	for _, p := range props {
		if !p.Deleted.Zero() && p.Deleted.PointwiseLT(wm) {
			removed++
			continue
		}
		out = append(out, p)
	}
	return out, removed
}
