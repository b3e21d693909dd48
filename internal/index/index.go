// Package index implements per-shard multiversion secondary indexes over
// vertex properties: for each configured property key, per-vertex version
// chains plus an inverted candidate map from value to vertices, with a
// sorted value layer for ordered range scans.
//
// Chain entries carry create/delete timestamps exactly like graph
// versions, so a lookup with a visibility predicate for timestamp T (a
// node program's snapshot, or a pinned past timestamp) returns exactly
// the vertices whose property was visible at T — the index is
// version-aware the same way the multi-version store is, which is what
// keeps index lookups strictly serializable and answerable at any
// retained snapshot (§4.5).
//
// Lookup semantics mirror the graph's materialization (graph.View)
// EXACTLY, by construction rather than by parallel reasoning:
//
//   - vertex visibility: the newest incarnation whose Created is visible
//     and whose Deleted is not (graph's visibleIncarnation) — the index
//     tracks incarnation lifetimes and tags every posting with its
//     incarnation ordinal;
//   - value visibility: within the visible incarnation, the LAST (in
//     apply order) posting whose Created is visible and whose close is not
//     wins (graph's visibleProps map-overwrite walk, which skips visibly
//     closed versions and lets the last survivor overwrite the rest).
//
// The distinction matters under multi-gatekeeper concurrency: a reader's
// predicate can find a version's close invisible (closer vector-after the
// reader) while later versions are visible (concurrent, write-before-read
// rule, §4.1) — naive per-posting interval tests would then report two
// values for one vertex, and stopping at the newest visibly-created posting
// would report none when that posting is visibly closed. Last-survivor-wins
// resolves the inversion the same deterministic way the graph store does,
// so an index lookup always equals a brute-force scan of the versioned
// store at the same timestamp.
//
// Maintenance rides the shard apply path: ApplyTx consumes the same
// operation stream the graph store applies, from the same single writer
// (the shard event loop), in refined timestamp order. The per-key mutexes
// guard the shared structures against readers on other goroutines (Stats,
// fence-time Detach/Attach).
//
// The index mirrors the graph store's record-install semantics: vertices
// installed wholesale from backing-store records (recovery, bulk ingest,
// demand paging) are reconciled to the record state at its last-update
// timestamp, and operations at or below that timestamp are skipped — the
// record already includes them (see graph.Store.Load). GC trims postings
// with the same watermark that trims graph history, and Detach/Attach
// hand a vertex's full posting history, in memory, to the shard its
// version chain migrates to.
package index

import (
	"sort"
	"sync"

	"weaver/internal/core"
	"weaver/internal/graph"
)

// Spec declares one secondary index over a vertex property key. Every
// shard in a cluster holds an identical index set (weaver.Config.Indexes).
type Spec struct {
	// Key is the vertex property key to index. Both equality lookups and
	// ordered (lexicographic) range scans are served.
	Key string
}

// Posting is one version of a vertex's indexed property: the vertex
// carried Value for this key from Created until Deleted (zero = still
// live), during incarnation Ord of the vertex.
type Posting struct {
	Value   string
	Ord     uint64 // incarnation ordinal (see Lifetime)
	Created core.Timestamp
	Deleted core.Timestamp
}

// Lifetime is one incarnation interval of a vertex, mirroring the graph
// chain's incarnations: delete-then-recreate opens a new lifetime with
// the next ordinal instead of destroying history (§4.5).
type Lifetime struct {
	Ord     uint64
	Created core.Timestamp
	Deleted core.Timestamp
}

// Index is one shard's secondary index set. A nil *Index is a valid
// "no indexes configured" instance: every method is nil-receiver safe.
type Index struct {
	// keys is immutable after New; only the per-key state is locked.
	keys map[string]*keyIndex

	// mu guards the vertex-level state shared by all keys: incarnation
	// lifetimes and the record-install watermark per vertex (the latter
	// mirroring the graph chain's loadedAt — operations at or below it
	// are already reflected by a reconciled record and must not
	// re-apply). Lock order: mu before any keyIndex.mu.
	mu     sync.RWMutex
	lives  map[graph.VertexID][]Lifetime
	loaded map[graph.VertexID]core.Timestamp
}

// keyIndex is the index for one property key.
type keyIndex struct {
	mu sync.Mutex
	// chains holds each vertex's apply-ordered version chain for this
	// key — the ground truth lookups evaluate.
	chains map[graph.VertexID][]Posting
	// candidates is the inverted acceleration map: value → vertices whose
	// chain retains at least one posting with that value. Membership is a
	// superset of any snapshot's answer; lookups filter through the chain.
	candidates map[string]map[graph.VertexID]struct{}
	// sorted holds the distinct candidate values, ascending — the ordered
	// value layer range scans walk.
	sorted []string
}

// New builds an index set for the given specs; duplicate keys collapse.
// Returns nil when no specs are given.
func New(specs []Spec) *Index {
	if len(specs) == 0 {
		return nil
	}
	ix := &Index{
		keys:   make(map[string]*keyIndex, len(specs)),
		lives:  make(map[graph.VertexID][]Lifetime),
		loaded: make(map[graph.VertexID]core.Timestamp),
	}
	for _, sp := range specs {
		if _, dup := ix.keys[sp.Key]; dup || sp.Key == "" {
			continue
		}
		ix.keys[sp.Key] = &keyIndex{
			chains:     make(map[graph.VertexID][]Posting),
			candidates: make(map[string]map[graph.VertexID]struct{}),
		}
	}
	return ix
}

// HasKey reports whether the property key is indexed.
func (ix *Index) HasKey(key string) bool {
	if ix == nil {
		return false
	}
	_, ok := ix.keys[key]
	return ok
}

// Keys returns the indexed property keys (unordered).
func (ix *Index) Keys() []string {
	if ix == nil {
		return nil
	}
	out := make([]string, 0, len(ix.keys))
	for k := range ix.keys {
		out = append(out, k)
	}
	return out
}

// ApplyTx feeds one applied transaction's operations into the index,
// stamped with the transaction timestamp. The shard event loop is the only
// caller and delivers transactions in refined timestamp order.
func (ix *Index) ApplyTx(ops []graph.Op, ts core.Timestamp) {
	if ix == nil {
		return
	}
	for i := range ops {
		ix.Apply(ops[i], ts)
	}
}

// Apply feeds a single operation (see ApplyTx).
func (ix *Index) Apply(op graph.Op, ts core.Timestamp) {
	if ix == nil {
		return
	}
	switch op.Kind {
	case graph.OpCreateVertex, graph.OpDeleteVertex:
		// Vertex-lifetime operations mutate the shared incarnation
		// state: exclusive lock.
		ix.mu.Lock()
		if ix.replaySuppressedLocked(op.Vertex, ts) {
			ix.mu.Unlock()
			return
		}
		if op.Kind == graph.OpCreateVertex {
			ix.openLifetimeLocked(op.Vertex, ts)
			ix.mu.Unlock()
			return
		}
		ix.closeLifetimeLocked(op.Vertex, ts)
		ix.mu.Unlock()
		for _, kx := range ix.keys {
			kx.close(op.Vertex, ts)
		}
	case graph.OpSetVertexProp:
		kx := ix.keys[op.Key]
		if kx == nil {
			return
		}
		ix.mu.RLock()
		suppressed := ix.replaySuppressedLocked(op.Vertex, ts)
		ord := ix.currentOrdLocked(op.Vertex)
		ix.mu.RUnlock()
		if !suppressed {
			kx.set(op.Vertex, op.Value, ord, ts)
		}
	case graph.OpDelVertexProp:
		kx := ix.keys[op.Key]
		if kx == nil {
			return
		}
		ix.mu.RLock()
		suppressed := ix.replaySuppressedLocked(op.Vertex, ts)
		ix.mu.RUnlock()
		if !suppressed {
			kx.close(op.Vertex, ts)
		}
	}
}

// replaySuppressedLocked reports whether an operation at ts targets a
// vertex reconciled from a record that already includes it (see
// graph.Store.Load); re-applying would double the write. Callers hold
// ix.mu (read or write).
func (ix *Index) replaySuppressedLocked(v graph.VertexID, ts core.Timestamp) bool {
	loadedAt, wasLoaded := ix.loaded[v]
	if !wasLoaded {
		return false
	}
	cmp := ts.Compare(loadedAt)
	return cmp == core.Before || cmp == core.Equal
}

// openLifetimeLocked starts a new incarnation at ts. Callers hold ix.mu.
func (ix *Index) openLifetimeLocked(v graph.VertexID, ts core.Timestamp) {
	ls := ix.lives[v]
	ord := uint64(0)
	if n := len(ls); n > 0 {
		if ls[n-1].Deleted.Zero() {
			// Defensive: the stream guarantees create-after-delete; an
			// unclosed predecessor is an ordering bug upstream, already
			// surfaced by the graph store. Close it so history stays
			// well-formed.
			ls[n-1].Deleted = ts
		}
		ord = ls[n-1].Ord + 1
	}
	ix.lives[v] = append(ls, Lifetime{Ord: ord, Created: ts})
}

// closeLifetimeLocked ends the open incarnation at ts. Callers hold ix.mu.
func (ix *Index) closeLifetimeLocked(v graph.VertexID, ts core.Timestamp) {
	ls := ix.lives[v]
	if n := len(ls); n > 0 {
		if ls[n-1].Deleted.Zero() {
			ls[n-1].Deleted = ts
		}
		return
	}
	// No recorded lifetime (writes predating the index stream): record a
	// closed implicit incarnation so the delete is visible to readers.
	ix.lives[v] = append(ls, Lifetime{Ord: 0, Deleted: ts})
}

// currentOrdLocked returns the open incarnation's ordinal (implicitly 0
// for vertices the index never saw created). Callers hold ix.mu.
func (ix *Index) currentOrdLocked(v graph.VertexID) uint64 {
	ls := ix.lives[v]
	if n := len(ls); n > 0 {
		return ls[n-1].Ord
	}
	return 0
}

// set supersedes v's live posting (if any) at ts and appends a new one.
func (kx *keyIndex) set(v graph.VertexID, value string, ord uint64, ts core.Timestamp) {
	kx.mu.Lock()
	defer kx.mu.Unlock()
	kx.closeLocked(v, ts)
	kx.chains[v] = append(kx.chains[v], Posting{Value: value, Ord: ord, Created: ts})
	set, ok := kx.candidates[value]
	if !ok {
		set = make(map[graph.VertexID]struct{})
		kx.candidates[value] = set
		kx.addValue(value)
	}
	set[v] = struct{}{}
}

// close stamps Deleted on v's live posting, if any.
func (kx *keyIndex) close(v graph.VertexID, ts core.Timestamp) {
	kx.mu.Lock()
	defer kx.mu.Unlock()
	kx.closeLocked(v, ts)
}

func (kx *keyIndex) closeLocked(v graph.VertexID, ts core.Timestamp) {
	ch := kx.chains[v]
	if n := len(ch); n > 0 && ch[n-1].Deleted.Zero() {
		ch[n-1].Deleted = ts
	}
}

// addValue inserts value into the sorted layer. Callers hold kx.mu.
func (kx *keyIndex) addValue(value string) {
	i := sort.SearchStrings(kx.sorted, value)
	if i < len(kx.sorted) && kx.sorted[i] == value {
		return
	}
	kx.sorted = append(kx.sorted, "")
	copy(kx.sorted[i+1:], kx.sorted[i:])
	kx.sorted[i] = value
}

// rebuildSorted recomputes the sorted value layer. Callers hold kx.mu.
func (kx *keyIndex) rebuildSorted() {
	kx.sorted = kx.sorted[:0]
	for val := range kx.candidates {
		kx.sorted = append(kx.sorted, val)
	}
	sort.Strings(kx.sorted)
}

// visibleOrd resolves which incarnation of the lifetimes list is visible
// under before — the graph's visibleIncarnation rule: newest first, the
// first whose Created is visible and whose Deleted is not. An empty list
// means the index never saw the vertex created (writes predating the
// stream): incarnation 0 is implicitly visible, matching a graph chain
// whose versions simply exist.
func visibleOrd(ls []Lifetime, before graph.Before) (uint64, bool) {
	if len(ls) == 0 {
		return 0, true
	}
	for i := len(ls) - 1; i >= 0; i-- {
		l := ls[i]
		if !l.Created.Zero() && !before(l.Created) {
			continue
		}
		if !l.Deleted.Zero() && before(l.Deleted) {
			continue
		}
		return l.Ord, true
	}
	return 0, false
}

// visibleValue evaluates v's property value under before: the LAST posting
// (apply order) of the visible incarnation whose Created is visible and
// whose close is not — exactly the graph's visibleProps materialization,
// which skips visibly closed versions and keeps walking. Callers hold
// ix.mu (read) and kx.mu.
func (ix *Index) visibleValue(kx *keyIndex, v graph.VertexID, before graph.Before) (string, bool) {
	ord, ok := visibleOrd(ix.lives[v], before)
	if !ok {
		return "", false
	}
	ch := kx.chains[v]
	for i := len(ch) - 1; i >= 0; i-- {
		p := &ch[i]
		if p.Ord != ord || !before(p.Created) {
			continue
		}
		if !p.Deleted.Zero() && before(p.Deleted) {
			continue // visibly superseded or deleted; an earlier version may survive
		}
		return p.Value, true
	}
	return "", false
}

// Interval is a lexicographic value interval on one indexed key. An empty
// Lo or Hi is an unbounded side; LoStrict/HiStrict exclude the bound
// itself.
type Interval struct {
	Lo, Hi             string
	LoStrict, HiStrict bool
}

// Contains reports whether val lies in the interval.
func (iv Interval) Contains(val string) bool {
	if iv.Lo != "" && (val < iv.Lo || iv.LoStrict && val == iv.Lo) {
		return false
	}
	if iv.Hi != "" && (val > iv.Hi || iv.HiStrict && val == iv.Hi) {
		return false
	}
	return true
}

// lockKey resolves key and takes the locks a lookup needs (released by
// unlockKey); nil means the key is not indexed and nothing is held.
func (ix *Index) lockKey(key string) *keyIndex {
	if ix == nil {
		return nil
	}
	kx := ix.keys[key]
	if kx != nil {
		ix.mu.RLock()
		kx.mu.Lock()
	}
	return kx
}

func (ix *Index) unlockKey(kx *keyIndex) {
	kx.mu.Unlock()
	ix.mu.RUnlock()
}

// appendMatches appends the candidates of one value whose visible value is
// that value. A vertex has one visible value, so walking several values
// never reports it twice. Callers hold ix.mu (read) and kx.mu.
func (ix *Index) appendMatches(out []graph.VertexID, kx *keyIndex, value string, before graph.Before) []graph.VertexID {
	for v := range kx.candidates[value] {
		if got, ok := ix.visibleValue(kx, v, before); ok && got == value {
			out = append(out, v)
		}
	}
	return out
}

// Lookup returns the vertices whose indexed property key equals value
// under the visibility predicate, and whether the key is indexed at all.
// Each vertex appears at most once; result order is unspecified.
func (ix *Index) Lookup(key, value string, before graph.Before) ([]graph.VertexID, bool) {
	kx := ix.lockKey(key)
	if kx == nil {
		return nil, false
	}
	defer ix.unlockKey(kx)
	return ix.appendMatches(nil, kx, value, before), true
}

// Scan returns the vertices whose indexed property value lies in iv under
// the visibility predicate — one bounded walk of the sorted value layer,
// an equality lookup per value inside the bounds. Each vertex appears at
// most once; order is unspecified.
func (ix *Index) Scan(key string, iv Interval, before graph.Before) ([]graph.VertexID, bool) {
	kx := ix.lockKey(key)
	if kx == nil {
		return nil, false
	}
	defer ix.unlockKey(kx)
	var out []graph.VertexID
	for _, val := range kx.sorted[sort.SearchStrings(kx.sorted, iv.Lo):] {
		if iv.Hi != "" && val > iv.Hi {
			break
		}
		if iv.Contains(val) {
			out = ix.appendMatches(out, kx, val, before)
		}
	}
	return out, true
}

// VisibleValue reports v's visible value for the indexed key under the
// visibility predicate — the per-vertex probe that verifies a conjunction's
// remaining predicates over an already-narrow candidate set. The second
// return is false when the key is not indexed or v has no visible value
// for it.
func (ix *Index) VisibleValue(key string, v graph.VertexID, before graph.Before) (string, bool) {
	kx := ix.lockKey(key)
	if kx == nil {
		return "", false
	}
	defer ix.unlockKey(kx)
	return ix.visibleValue(kx, v, before)
}

// InsertRecord reconciles the index with a vertex record installed
// wholesale from the backing store — recovery, bulk ingest, or demand
// paging (see graph.Store.Load). Whatever the index currently believes
// about the vertex is superseded at the record's last-update timestamp:
// a missing open lifetime opens, stale live postings close, missing ones
// open, matching ones are left untouched. Idempotent; a vertex paged out
// and back in reconciles to a no-op because its index state was
// maintained through every write.
func (ix *Index) InsertRecord(rec *graph.VertexRecord) {
	if ix == nil || rec == nil || rec.Deleted {
		return
	}
	ts := rec.LastTS
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ls := ix.lives[rec.ID]
	if n := len(ls); n == 0 || !ls[n-1].Deleted.Zero() {
		// The record is live: make sure an open incarnation exists. A
		// fresh install (recovery, bulk) lands here; a paged-in vertex
		// already has its open lifetime.
		ix.openLifetimeLocked(rec.ID, ts)
	}
	ord := ix.currentOrdLocked(rec.ID)
	for key, kx := range ix.keys {
		val, has := rec.Props[key]
		kx.mu.Lock()
		cur, live := liveValue(kx.chains[rec.ID])
		switch {
		case has && live && cur == val:
			// Consistent already.
		case has:
			kx.closeLocked(rec.ID, ts)
			kx.chains[rec.ID] = append(kx.chains[rec.ID], Posting{Value: val, Ord: ord, Created: ts})
			set, ok := kx.candidates[val]
			if !ok {
				set = make(map[graph.VertexID]struct{})
				kx.candidates[val] = set
				kx.addValue(val)
			}
			set[rec.ID] = struct{}{}
		case live:
			kx.closeLocked(rec.ID, ts)
		}
		kx.mu.Unlock()
	}
	ix.loaded[rec.ID] = ts
}

// liveValue returns the chain's live (unclosed) value, if any. Callers
// hold kx.mu.
func liveValue(ch []Posting) (string, bool) {
	if n := len(ch); n > 0 && ch[n-1].Deleted.Zero() {
		return ch[n-1].Value, true
	}
	return "", false
}

// CollectBefore garbage-collects postings and lifetimes whose lifetime
// ended strictly before the watermark — the index half of version GC
// (§4.5); shards call it with the same watermark that prunes graph
// history, so a read that passes the staleness gate always finds its
// postings. "Before" is the pointwise test (core.Timestamp.PointwiseLT),
// exactly as graph.Store.CollectBefore: the watermark's owner identity is
// synthetic. Returns the number of postings removed.
func (ix *Index) CollectBefore(wm core.Timestamp) int {
	if ix == nil {
		return 0
	}
	removed := 0
	for _, kx := range ix.keys {
		kx.mu.Lock()
		resort := false
		for v, ch := range kx.chains {
			kept := ch[:0]
			var dropped []string
			for i := range ch {
				if !ch[i].Deleted.Zero() && ch[i].Deleted.PointwiseLT(wm) {
					removed++
					dropped = append(dropped, ch[i].Value)
					continue
				}
				kept = append(kept, ch[i])
			}
			if len(dropped) == 0 {
				continue
			}
			if len(kept) == 0 {
				delete(kx.chains, v)
			} else {
				kx.chains[v] = kept
			}
			// Retire candidate entries whose value no longer appears in
			// the chain.
			for _, val := range dropped {
				if chainHasValue(kept, val) {
					continue
				}
				if set := kx.candidates[val]; set != nil {
					delete(set, v)
					if len(set) == 0 {
						delete(kx.candidates, val)
						resort = true
					}
				}
			}
		}
		if resort {
			kx.rebuildSorted()
		}
		kx.mu.Unlock()
	}
	ix.mu.Lock()
	for v, ls := range ix.lives {
		kept := ls[:0]
		for i := range ls {
			if !ls[i].Deleted.Zero() && ls[i].Deleted.PointwiseLT(wm) {
				continue
			}
			kept = append(kept, ls[i])
		}
		if len(kept) == 0 {
			delete(ix.lives, v)
		} else {
			ix.lives[v] = kept
		}
	}
	// Record-install watermarks below the GC watermark can never match an
	// arriving operation again (everything still in flight is above the
	// watermark), so the map stays bounded by live-vertex count.
	for v, ts := range ix.loaded {
		if ts.PointwiseLT(wm) {
			delete(ix.loaded, v)
		}
	}
	ix.mu.Unlock()
	return removed
}

func chainHasValue(ch []Posting, val string) bool {
	for i := range ch {
		if ch[i].Value == val {
			return true
		}
	}
	return false
}

// Postings is the detached index history of a set of vertices, produced
// by Detach and consumed by Attach (vertex migration, §4.6); it moves
// between shards in memory, never encoded. Keys maps property key →
// vertex → version chain; Lives carries the vertices' incarnation
// lifetimes, Loaded their record-install watermarks.
type Postings struct {
	Keys   map[string]map[graph.VertexID][]Posting
	Lives  map[graph.VertexID][]Lifetime
	Loaded map[graph.VertexID]core.Timestamp
}

// Detach removes and returns the full index history (live and superseded
// postings, incarnation lifetimes, record-install watermarks) of the given
// vertices, so migration can hand it to the target shard alongside the
// graph version chains (shard.Shard.Detach) — historical lookups of a
// migrated vertex keep answering at its new home. Ownership transfers with
// the value. Callers must hold the migration fence (gatekeepers paused,
// applies quiesced, read queries drained) on both shards.
func (ix *Index) Detach(ids []graph.VertexID) Postings {
	if ix == nil || len(ids) == 0 {
		return Postings{}
	}
	var out Postings
	for key, kx := range ix.keys {
		kx.mu.Lock()
		resort := false
		for _, v := range ids {
			ch, ok := kx.chains[v]
			if !ok {
				continue
			}
			delete(kx.chains, v)
			if out.Keys == nil {
				out.Keys = make(map[string]map[graph.VertexID][]Posting)
			}
			if out.Keys[key] == nil {
				out.Keys[key] = make(map[graph.VertexID][]Posting)
			}
			out.Keys[key][v] = ch
			for i := range ch {
				if set := kx.candidates[ch[i].Value]; set != nil {
					delete(set, v)
					if len(set) == 0 {
						delete(kx.candidates, ch[i].Value)
						resort = true
					}
				}
			}
		}
		if resort {
			kx.rebuildSorted()
		}
		kx.mu.Unlock()
	}
	ix.mu.Lock()
	for _, v := range ids {
		if ls, ok := ix.lives[v]; ok {
			if out.Lives == nil {
				out.Lives = make(map[graph.VertexID][]Lifetime)
			}
			out.Lives[v] = ls
			delete(ix.lives, v)
		}
		if ts, ok := ix.loaded[v]; ok {
			if out.Loaded == nil {
				out.Loaded = make(map[graph.VertexID]core.Timestamp)
			}
			out.Loaded[v] = ts
			delete(ix.loaded, v)
		}
	}
	ix.mu.Unlock()
	return out
}

// Attach installs an index bundle detached from another shard. Keys the
// receiving index is not configured with are dropped (index specs are
// cluster-wide, so this only happens on misconfiguration). The same fence
// contract as Detach applies.
func (ix *Index) Attach(p Postings) {
	if ix == nil {
		return
	}
	for key, chains := range p.Keys {
		kx := ix.keys[key]
		if kx == nil {
			continue
		}
		kx.mu.Lock()
		for v, ch := range chains {
			if len(ch) == 0 {
				continue
			}
			// Replace wholesale: the fence guarantees the mover owns the
			// vertex, so any local chain is stale (e.g. a bounce-back
			// migration raced nothing).
			kx.chains[v] = ch
			for i := range ch {
				set, ok := kx.candidates[ch[i].Value]
				if !ok {
					set = make(map[graph.VertexID]struct{})
					kx.candidates[ch[i].Value] = set
					kx.addValue(ch[i].Value)
				}
				set[v] = struct{}{}
			}
		}
		kx.mu.Unlock()
	}
	ix.mu.Lock()
	for v, ls := range p.Lives {
		ix.lives[v] = ls
	}
	for v, ts := range p.Loaded {
		ix.loaded[v] = ts
	}
	ix.mu.Unlock()
}

// NumPostings returns the total posting count across all keys (live and
// superseded) — a stats/observability figure.
func (ix *Index) NumPostings() int {
	if ix == nil {
		return 0
	}
	n := 0
	for _, kx := range ix.keys {
		kx.mu.Lock()
		for _, ch := range kx.chains {
			n += len(ch)
		}
		kx.mu.Unlock()
	}
	return n
}
