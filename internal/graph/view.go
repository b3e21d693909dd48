package graph

import "weaver/internal/core"

// View is a consistent read-only snapshot of the multi-version graph, as
// seen by a reader whose visibility is decided by a Before predicate
// (§4.1: node programs read exactly the versions whose write timestamps
// happen-before the program's timestamp).
type View struct {
	s      *Store
	before Before
}

// At returns a snapshot view using the given visibility predicate.
func (s *Store) At(before Before) *View {
	w := s.ViewAt(before)
	return &w
}

// ViewAt is At by value, for a reader that keeps one View and re-points it
// for every read instead of allocating one.
func (s *Store) ViewAt(before Before) View {
	return View{s: s, before: before}
}

// VertexView is a materialized snapshot of one vertex. It is read-only:
// Props is nil when no property is visible, and a reader (a node program
// registered through weaver.Cluster.Registry included) must not write to
// it or to its Edges.
type VertexView struct {
	ID    VertexID
	Props map[string]string
	Edges []EdgeView
	// spare and spareEdges are the props map and the Edges array of an
	// earlier fill (Fill), kept while Props or Edges is nil so the next
	// visible props or edges reuse them.
	spare      map[string]string
	spareEdges []EdgeView
}

// EdgeView is a materialized snapshot of one live out-edge, read-only like
// VertexView; Props is nil when the edge has no visible property.
type EdgeView struct {
	ID    EdgeID
	To    VertexID
	Props map[string]string
}

// HasProp reports whether the edge carries the property key, with any
// value if want is empty, or the exact value otherwise. Mirrors the
// edge.check(edge_prop) call in the paper's BFS node program (Fig 3).
func (e EdgeView) HasProp(key, want string) bool {
	v, ok := e.Props[key]
	if !ok {
		return false
	}
	return want == "" || v == want
}

// Incarnation returns the incarnation of id alive in this view, or nil:
// the one map probe a reader needs to know whether id exists, with no
// property or edge read. Fill materializes it on demand; it is the store's
// own, so a reader must not write to it. Incarnation lifetimes are
// disjoint, so at most one matches.
func (w *View) Incarnation(id VertexID) *Vertex {
	w.s.mu.RLock()
	defer w.s.mu.RUnlock()
	return w.visibleIncarnation(id)
}

// visibleIncarnation is Incarnation under a lock the caller holds.
func (w *View) visibleIncarnation(id VertexID) *Vertex {
	ch := w.s.vertices[id]
	if ch == nil {
		return nil
	}
	for i := len(ch.incarnations) - 1; i >= 0; i-- {
		v := ch.incarnations[i]
		if w.alive(v.Created, v.Deleted) {
			return v
		}
	}
	return nil
}

// Exists reports whether the vertex is visible in this view.
func (w *View) Exists(id VertexID) bool {
	return w.Incarnation(id) != nil
}

// alive is the one visibility rule every version follows — incarnation,
// edge or property: written before the view and not ended before it.
func (w *View) alive(created, deleted core.Timestamp) bool {
	return w.before(created) && (deleted.Zero() || !w.before(deleted))
}

// visibleProps materializes a version list into reuse (cleared; made when
// nil): every visible version, the last one per key winning; nil when none
// is visible.
func (w *View) visibleProps(props []Property, reuse map[string]string) map[string]string {
	var m map[string]string
	for i := range props {
		if p := &props[i]; w.alive(p.Created, p.Deleted) {
			if m == nil {
				if m = reuse; m == nil {
					m = make(map[string]string)
				} else {
					clear(m)
				}
			}
			m[p.Key] = p.Value
		}
	}
	return m
}

// Prop returns the visible value of id's property key: the one-key form of
// Vertex's props walk, so the last visible version wins.
func (w *View) Prop(id VertexID, key string) (string, bool) {
	w.s.mu.RLock()
	defer w.s.mu.RUnlock()
	v := w.visibleIncarnation(id)
	if v == nil {
		return "", false
	}
	for i := len(v.Props) - 1; i >= 0; i-- {
		if p := &v.Props[i]; p.Key == key && w.alive(p.Created, p.Deleted) {
			return p.Value, true
		}
	}
	return "", false
}

// Truncated reports whether id's resident history starts at a marked
// install (Store.Install) this view cannot see — what id held at the view's
// timestamp was never loaded — and that install's stamp.
func (w *View) Truncated(id VertexID) (core.Timestamp, bool) {
	w.s.mu.RLock()
	defer w.s.mu.RUnlock()
	if ch := w.s.vertices[id]; ch != nil && ch.marked && !w.before(ch.loadedAt) {
		return ch.loadedAt, true
	}
	return core.Timestamp{}, false
}

// Vertex materializes the visible state of id: its live properties and live
// out-edges with their properties. Returns ok=false if the vertex is not
// visible in this view.
func (w *View) Vertex(id VertexID) (*VertexView, bool) {
	vv := new(VertexView)
	if !w.VertexInto(id, vv) {
		return nil, false
	}
	return vv, true
}

// VertexInto is Vertex into a caller-owned view: Incarnation, then Fill,
// both under one read lock. When id is not visible it returns false and
// vv's contents are undefined.
func (w *View) VertexInto(id VertexID, vv *VertexView) bool {
	w.s.mu.RLock()
	defer w.s.mu.RUnlock()
	v := w.visibleIncarnation(id)
	if v == nil {
		return false
	}
	w.Fill(v, vv)
	return true
}

// Fill materializes v — an incarnation this view's Incarnation returned —
// into a caller-owned view: its properties and live out-edges with their
// properties, as this view sees them. It reuses the Edges array and the
// props map of vv's previous fills, so a reader that visits many vertices
// allocates only for a vertex larger than any before it (and for edge
// properties); everything an earlier fill returned is overwritten. Like
// Props, Edges is nil when no edge is visible, whatever vv held before.
//
// Fill reads only v's own versions, and takes no lock: the map probe that
// found v did. Call it where the store's single writer (Store) cannot run
// at the same time — on that writer's goroutine, as the shard's visits
// do — or through VertexInto.
func (w *View) Fill(v *Vertex, vv *VertexView) {
	if vv.Props != nil {
		vv.spare = vv.Props
	}
	vv.ID = v.ID
	vv.Props = w.visibleProps(v.Props, vv.spare)
	if vv.Edges != nil {
		vv.spareEdges = vv.Edges
	}
	edges := vv.spareEdges[:0]
	if cap(edges) < len(v.Out) {
		edges = make([]EdgeView, 0, len(v.Out))
	}
	for _, e := range v.Out {
		if !w.alive(e.Created, e.Deleted) {
			continue
		}
		edges = append(edges, EdgeView{ID: e.ID, To: e.To, Props: w.visibleProps(e.Props, nil)})
	}
	vv.Edges = nil
	if len(edges) > 0 {
		vv.Edges = edges
	}
}

// CountEdges returns the number of live out-edges of id without
// materializing them (the TAO count_edges operation).
func (w *View) CountEdges(id VertexID) (int, bool) {
	w.s.mu.RLock()
	defer w.s.mu.RUnlock()
	v := w.visibleIncarnation(id)
	if v == nil {
		return 0, false
	}
	n := 0
	for _, e := range v.Out {
		if w.alive(e.Created, e.Deleted) {
			n++
		}
	}
	return n, true
}
