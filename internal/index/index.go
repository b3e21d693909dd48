// Package index implements per-shard multiversion secondary indexes over
// vertex properties: for each configured property key, an inverted
// candidate map from value to vertices, with a sorted value layer for
// ordered range scans.
//
// The index keeps no version model of its own. Its history is a graph.Store
// projection (graph.NewProjection) — each vertex's incarnations and the
// versions of its indexed properties — fed every operation and record the
// shard's graph is fed, from the same single writer, and never paged out.
// A lookup at timestamp T keeps a candidate exactly when graph.View at T
// shows it holding the value (View.Prop, the one-key form of View.Vertex's
// props walk), so it equals a brute-force scan of the versioned store at T
// by construction. A vertex is a candidate for exactly the values its
// resident versions hold: entries come as versions are written or installed
// and go as versions are collected, replaced by a record or moved away. A
// record read back from the store holds only a vertex's latest state, so
// shards refuse lookups below the projection's install horizon (Horizon).
// One mutex guards the candidate maps against readers on other goroutines
// (Stats, fence-time Detach/Attach).
package index

import (
	"slices"
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

// Index is one shard's secondary index set. A nil *Index is a valid
// "no indexes configured" instance: every method is nil-receiver safe.
type Index struct {
	// proj is the indexed history; its lock is taken after mu.
	proj *graph.Store
	// keys is immutable after New; mu guards every keyIndex.
	keys map[string]*keyIndex
	mu   sync.Mutex
}

// keyIndex is the inverted index for one property key.
type keyIndex struct {
	// candidates maps value → vertices a resident version of which holds
	// that value; lookups filter them through the projection.
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
	ix := &Index{keys: make(map[string]*keyIndex, len(specs))}
	var keys []string
	for _, sp := range specs {
		if sp.Key != "" {
			ix.keys[sp.Key] = &keyIndex{candidates: make(map[string]map[graph.VertexID]struct{})}
			keys = append(keys, sp.Key)
		}
	}
	ix.proj = graph.NewProjection(keys)
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

// ApplyTx feeds one applied transaction's operations into the index,
// stamped with the transaction timestamp. The shard event loop is the only
// caller and delivers transactions in refined timestamp order. Operations
// the projection rejects or already holds (see graph.Store.Install) change
// nothing.
func (ix *Index) ApplyTx(ops []graph.Op, ts core.Timestamp) {
	if ix == nil {
		return
	}
	ix.proj.ApplyTx(ops, ts, nil)
	for _, op := range ops {
		if kx := ix.keys[op.Key]; op.Kind == graph.OpSetVertexProp && kx != nil && ix.holds(op.Vertex, op.Key, op.Value) {
			ix.mu.Lock()
			kx.addLocked(op.Value, op.Vertex)
			ix.mu.Unlock()
		}
	}
}

// Apply feeds a single operation (see ApplyTx).
func (ix *Index) Apply(op graph.Op, ts core.Timestamp) {
	ix.ApplyTx([]graph.Op{op}, ts)
}

// InsertRecord installs one record unmarked (Install).
func (ix *Index) InsertRecord(rec *graph.VertexRecord) {
	ix.Install([]*graph.VertexRecord{rec}, false)
}

// Install installs vertex records wholesale — recovery, the epoch barrier's
// sweep, bulk ingest — exactly as graph.Store.Install installs them in the
// shard's graph: each replaces its vertex's indexed history.
func (ix *Index) Install(recs []*graph.VertexRecord, marked bool) {
	if ix == nil {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, rec := range recs {
		ix.forgetLocked(rec.ID, nil)
	}
	ix.proj.Install(recs, marked)
	for _, rec := range recs {
		ix.proj.Versions(rec.ID, func(p *graph.Property) { ix.keys[p.Key].addLocked(p.Value, rec.ID) })
	}
}

// Horizon is the install horizon lookups are refused below: the
// projection's graph.Store.Horizon, raised by marked installs and attached
// marked histories.
func (ix *Index) Horizon() core.Timestamp {
	if ix == nil {
		return core.Timestamp{}
	}
	return ix.proj.Horizon()
}

// holds reports whether some resident version of v holds key=value.
func (ix *Index) holds(v graph.VertexID, key, value string) (held bool) {
	ix.proj.Versions(v, func(p *graph.Property) { held = held || p.Key == key && p.Value == value })
	return held
}

// forgetLocked drops v's candidate entry for every value its resident
// history holds, handing each dropped entry to gone when non-nil. Callers
// hold ix.mu.
func (ix *Index) forgetLocked(v graph.VertexID, gone func(key, value string)) {
	ix.proj.Versions(v, func(p *graph.Property) {
		if ix.keys[p.Key].dropLocked(p.Value, v) && gone != nil {
			gone(p.Key, p.Value)
		}
	})
}

// addLocked makes v a candidate for value, entering a new value into the
// sorted layer. Callers hold ix.mu.
func (kx *keyIndex) addLocked(value string, v graph.VertexID) {
	set, ok := kx.candidates[value]
	if !ok {
		set = make(map[graph.VertexID]struct{})
		kx.candidates[value] = set
		i, _ := slices.BinarySearch(kx.sorted, value)
		kx.sorted = slices.Insert(kx.sorted, i, value)
	}
	set[v] = struct{}{}
}

// dropLocked removes v from value's candidates, and value from the sorted
// layer once it has none; it reports whether v was a candidate. Callers
// hold ix.mu.
func (kx *keyIndex) dropLocked(value string, v graph.VertexID) bool {
	set := kx.candidates[value]
	if _, ok := set[v]; !ok {
		return false
	}
	delete(set, v)
	if len(set) == 0 {
		delete(kx.candidates, value)
		i, _ := slices.BinarySearch(kx.sorted, value)
		kx.sorted = slices.Delete(kx.sorted, i, i+1)
	}
	return true
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

// appendMatches appends the candidates of key=value that w shows holding
// that value. A vertex has one visible value, so walking several values
// never reports it twice. Callers hold ix.mu.
func (ix *Index) appendMatches(out []graph.VertexID, w *graph.View, key, value string) []graph.VertexID {
	for v := range ix.keys[key].candidates[value] {
		if got, ok := w.Prop(v, key); ok && got == value {
			out = append(out, v)
		}
	}
	return out
}

// Lookup returns the vertices whose indexed property key equals value
// under the visibility predicate, and whether the key is indexed at all.
// Each vertex appears at most once; result order is unspecified.
func (ix *Index) Lookup(key, value string, before graph.Before) ([]graph.VertexID, bool) {
	if !ix.HasKey(key) {
		return nil, false
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.appendMatches(nil, ix.proj.At(before), key, value), true
}

// Scan returns the vertices whose indexed property value lies in iv under
// the visibility predicate — one bounded walk of the sorted value layer,
// an equality lookup per value inside the bounds. Each vertex appears at
// most once; order is unspecified.
func (ix *Index) Scan(key string, iv Interval, before graph.Before) ([]graph.VertexID, bool) {
	if !ix.HasKey(key) {
		return nil, false
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	w := ix.proj.At(before)
	sorted := ix.keys[key].sorted
	lo, _ := slices.BinarySearch(sorted, iv.Lo)
	var out []graph.VertexID
	for _, val := range sorted[lo:] {
		if iv.Hi != "" && val > iv.Hi {
			break
		}
		if iv.Contains(val) {
			out = ix.appendMatches(out, w, key, val)
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
	if !ix.HasKey(key) {
		return "", false
	}
	return ix.proj.At(before).Prop(v, key)
}

// CollectBefore garbage-collects the indexed history below the watermark —
// the projection's graph.Store.CollectBefore, the same retire-list pass and
// the same pointwise test that prune the shard's graph (§4.5) — and drops the
// candidate entries no retained version still holds. Shards call it with
// the watermark that prunes graph history, so a read that passes the
// staleness gate always finds its versions. Returns the number of versions
// removed.
func (ix *Index) CollectBefore(wm core.Timestamp) int {
	if ix == nil {
		return 0
	}
	type entry struct {
		v          graph.VertexID
		key, value string
	}
	var gone []entry
	removed := ix.proj.CollectBeforeFunc(wm, func(v graph.VertexID, p *graph.Property) {
		gone = append(gone, entry{v, p.Key, p.Value})
	})
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, e := range gone {
		if !ix.holds(e.v, e.key, e.value) {
			ix.keys[e.key].dropLocked(e.value, e.v)
		}
	}
	return removed
}

// Retired returns the projection's pending retirements
// (graph.Store.Retired), to be called from the shard's event loop.
func (ix *Index) Retired() int {
	if ix == nil {
		return 0
	}
	return ix.proj.Retired()
}

// Postings is the index state of vertices in transit between shards
// (vertex migration, §4.6), handed from Detach to Attach in memory: their
// projected histories, and the values they are candidates for.
type Postings struct {
	// Values maps key → value → the moved vertices that are candidates
	// for it, superseded values included.
	Values    map[string]map[string][]graph.VertexID
	histories []graph.History
}

// Detach removes and returns the indexed history of the given vertices
// (graph.Store.Detach on the projection) and their candidate entries, so
// migration can hand them to the target shard alongside the graph version
// chains (shard.Shard.Detach) — historical lookups of a migrated vertex
// keep answering at its new home. Ownership transfers with the value.
// Callers must hold the migration fence (gatekeepers paused, applies
// quiesced, read queries drained) on both shards.
func (ix *Index) Detach(ids []graph.VertexID) Postings {
	if ix == nil || len(ids) == 0 {
		return Postings{}
	}
	p := Postings{Values: make(map[string]map[string][]graph.VertexID)}
	for key := range ix.keys {
		p.Values[key] = make(map[string][]graph.VertexID)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, v := range ids {
		ix.forgetLocked(v, func(key, value string) { p.Values[key][value] = append(p.Values[key][value], v) })
		if h, ok := ix.proj.Detach(v); ok {
			p.histories = append(p.histories, h)
		}
	}
	return p
}

// Attach installs index state detached from another shard, replacing any
// local history of the moved vertices; a marked history brings its stamp to
// the install horizon, which so moves with the vertex. Keys the receiving
// index is not configured with are dropped (index specs are cluster-wide,
// so this only happens on misconfiguration). The same fence contract as
// Detach applies.
func (ix *Index) Attach(p Postings) {
	if ix == nil {
		return
	}
	for _, h := range p.histories {
		ix.proj.Attach(h)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for key, byValue := range p.Values {
		kx := ix.keys[key]
		if kx == nil {
			continue
		}
		for val, vs := range byValue {
			for _, v := range vs {
				kx.addLocked(val, v)
			}
		}
	}
}

// NumPostings returns the number of (value, vertex) candidate entries
// across all keys — a stats/observability figure.
func (ix *Index) NumPostings() int {
	if ix == nil {
		return 0
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := 0
	for _, kx := range ix.keys {
		for _, set := range kx.candidates {
			n += len(set)
		}
	}
	return n
}
