package index

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"weaver/internal/core"
	"weaver/internal/graph"
)

// ts builds a single-gatekeeper timestamp with counter n.
func ts(n uint64) core.Timestamp {
	return core.Timestamp{Owner: 0, Clock: []uint64{n}}
}

// at returns the strictly-happened-before visibility predicate of a
// reader at counter n, the shape shards build from snapshot timestamps.
func at(n uint64) graph.Before {
	t := ts(n)
	return func(w core.Timestamp) bool { return w.Compare(t) == core.Before }
}

func setOp(v graph.VertexID, key, value string) graph.Op {
	return graph.Op{Kind: graph.OpSetVertexProp, Vertex: v, Key: key, Value: value}
}

func createOp(v graph.VertexID) graph.Op {
	return graph.Op{Kind: graph.OpCreateVertex, Vertex: v}
}

func deleteOp(v graph.VertexID) graph.Op {
	return graph.Op{Kind: graph.OpDeleteVertex, Vertex: v}
}

func lookup(t *testing.T, ix *Index, key, value string, n uint64) []graph.VertexID {
	t.Helper()
	ids, ok := ix.Lookup(key, value, at(n))
	if !ok {
		t.Fatalf("Lookup(%q): key not indexed", key)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func wantIDs(t *testing.T, got []graph.VertexID, want ...graph.VertexID) {
	t.Helper()
	if len(want) == 0 {
		want = []graph.VertexID{}
	}
	g := append([]graph.VertexID{}, got...)
	if len(g) == 0 {
		g = []graph.VertexID{}
	}
	if !reflect.DeepEqual(g, want) {
		t.Fatalf("lookup mismatch: got %v want %v", got, want)
	}
}

func TestEqualityLookupIsVersioned(t *testing.T) {
	ix := New([]Spec{{Key: "city"}})
	ix.ApplyTx([]graph.Op{createOp("v1"), setOp("v1", "city", "a")}, ts(1))
	ix.ApplyTx([]graph.Op{createOp("v2"), setOp("v2", "city", "a")}, ts(2))
	ix.Apply(setOp("v1", "city", "b"), ts(3))
	ix.Apply(graph.Op{Kind: graph.OpDelVertexProp, Vertex: "v2", Key: "city"}, ts(4))

	wantIDs(t, lookup(t, ix, "city", "a", 1))             // before any write
	wantIDs(t, lookup(t, ix, "city", "a", 2), "v1")       // v1 only
	wantIDs(t, lookup(t, ix, "city", "a", 3), "v1", "v2") // both
	wantIDs(t, lookup(t, ix, "city", "a", 4), "v2")       // v1 moved to b
	wantIDs(t, lookup(t, ix, "city", "b", 4), "v1")
	wantIDs(t, lookup(t, ix, "city", "a", 5)) // v2's prop deleted
	wantIDs(t, lookup(t, ix, "city", "b", 5), "v1")

	if _, ok := ix.Lookup("nope", "a", at(5)); ok {
		t.Fatal("Lookup on unindexed key reported ok")
	}
	if !ix.HasKey("city") || ix.HasKey("nope") {
		t.Fatal("HasKey wrong")
	}
}

func TestDeleteVertexEndsIncarnation(t *testing.T) {
	ix := New([]Spec{{Key: "city"}, {Key: "kind"}})
	ix.ApplyTx([]graph.Op{createOp("v1"), setOp("v1", "city", "a"), setOp("v1", "kind", "user")}, ts(1))
	ix.Apply(deleteOp("v1"), ts(3))
	wantIDs(t, lookup(t, ix, "city", "a", 3), "v1")
	wantIDs(t, lookup(t, ix, "kind", "user", 3), "v1")
	wantIDs(t, lookup(t, ix, "city", "a", 4))
	wantIDs(t, lookup(t, ix, "kind", "user", 4))

	// Recreate as a NEW incarnation: old history still answers at old
	// reads, and properties do not leak across incarnations.
	ix.ApplyTx([]graph.Op{createOp("v1"), setOp("v1", "city", "b")}, ts(5))
	wantIDs(t, lookup(t, ix, "city", "a", 3), "v1")
	wantIDs(t, lookup(t, ix, "city", "b", 6), "v1")
	wantIDs(t, lookup(t, ix, "kind", "user", 6)) // not re-set after recreation
}

// TestVisibleValueMatchesGraphViewUnderOrderInversion pins the
// multi-gatekeeper anomaly the chain design exists for, against the
// reference: graph.View. A version's close can be INVISIBLE (closer
// vector-after the reader) while later versions are VISIBLE (concurrent,
// write-before-read). The graph materializes such reads by skipping visibly
// closed versions and letting the last survivor win; the index must answer
// identically — one value, never two, and never none while the graph still
// shows one.
func TestVisibleValueMatchesGraphViewUnderOrderInversion(t *testing.T) {
	// Two gatekeepers. Reader r = gk1's tick <0,5>.
	r := core.Timestamp{Owner: 1, Clock: []uint64{0, 5}}
	before := func(w core.Timestamp) bool {
		switch w.Compare(r) {
		case core.Before:
			return true
		case core.After, core.Equal:
			return false
		}
		return true // concurrent: write-before-read
	}
	t1 := core.Timestamp{Owner: 1, Clock: []uint64{0, 1}} // before r
	t2 := core.Timestamp{Owner: 1, Clock: []uint64{1, 9}} // same gatekeeper, vector-AFTER r
	t3 := core.Timestamp{Owner: 0, Clock: []uint64{2, 2}} // CONCURRENT with r
	t4 := core.Timestamp{Owner: 0, Clock: []uint64{3, 2}} // CONCURRENT with r
	type step struct {
		op graph.Op
		ts core.Timestamp
	}
	delProp := graph.Op{Kind: graph.OpDelVertexProp, Vertex: "v", Key: "c"}
	for _, tc := range []struct {
		name  string
		steps []step // in refined (apply) order, after create+set x1 at t1
		want  string
	}{
		// Naive per-interval visibility would report v under x1 TWICE: the
		// t1 posting's close at t2 is invisible and the t3 posting is visible.
		{"later visible set wins", []step{{setOp("v", "c", "x0"), t2}, {setOp("v", "c", "x1"), t3}}, "x1"},
		// The newest visibly-created posting (t3) is visibly closed (t4), but
		// the t1 posting's close (t2) is invisible: the graph still shows x1.
		{"visibly closed newest falls back", []step{{setOp("v", "c", "x0"), t2}, {setOp("v", "c", "x2"), t3}, {delProp, t4}}, "x1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.NewStore()
			ix := New([]Spec{{Key: "c"}})
			steps := append([]step{{createOp("v"), t1}, {setOp("v", "c", "x1"), t1}}, tc.steps...)
			for _, st := range steps {
				if err := g.Apply(st.op, st.ts); err != nil {
					t.Fatalf("graph apply %+v: %v", st.op, err)
				}
				ix.Apply(st.op, st.ts)
			}
			vv, ok := g.At(before).Vertex("v")
			if !ok || vv.Props["c"] != tc.want {
				t.Fatalf("graph view: props %v (visible %v), want c=%s", vv, ok, tc.want)
			}
			if got, ok := ix.VisibleValue("c", "v", before); !ok || got != tc.want {
				t.Fatalf("index VisibleValue = %q, %v; graph view says %q", got, ok, tc.want)
			}
			for _, val := range []string{"x0", "x1", "x2"} {
				ids, _ := ix.Lookup("c", val, before)
				if want := val == tc.want; (len(ids) == 1) != want || len(ids) > 1 {
					t.Fatalf("Lookup(%s) = %v, want match=%v exactly once", val, ids, want)
				}
			}
			if ids, _ := ix.Scan("c", Interval{}, before); len(ids) != 1 || ids[0] != "v" {
				t.Fatalf("Scan = %v, want exactly [v]", ids)
			}
		})
	}
}

func TestScan(t *testing.T) {
	ix := New([]Spec{{Key: "n"}})
	for i, v := range []string{"05", "01", "03", "04", "02"} {
		vid := graph.VertexID("v" + v)
		ix.ApplyTx([]graph.Op{createOp(vid), setOp(vid, "n", v)}, ts(uint64(i+1)))
	}
	scan := func(iv Interval) []graph.VertexID {
		ids, ok := ix.Scan("n", iv, at(10))
		if !ok {
			t.Fatal("scan: key not indexed")
		}
		return ids
	}
	// Grouped by ascending value — the sorted layer's order.
	wantIDs(t, scan(Interval{Lo: "02", Hi: "04"}), "v02", "v03", "v04")
	wantIDs(t, scan(Interval{Hi: "01"}), "v01")
	wantIDs(t, scan(Interval{Lo: "04"}), "v04", "v05")
	wantIDs(t, scan(Interval{}), "v01", "v02", "v03", "v04", "v05")
	wantIDs(t, scan(Interval{Lo: "06"}))
	// Half-open probes between values.
	wantIDs(t, scan(Interval{Lo: "015", Hi: "035"}), "v02", "v03")
	// Strict bounds exclude the bound itself; a bound between values is
	// unaffected by strictness.
	wantIDs(t, scan(Interval{Lo: "02", LoStrict: true, Hi: "04", HiStrict: true}), "v03")
	wantIDs(t, scan(Interval{Lo: "015", LoStrict: true, Hi: "035", HiStrict: true}), "v02", "v03")
	wantIDs(t, scan(Interval{Lo: "03", LoStrict: true, Hi: "03"}))
	wantIDs(t, scan(Interval{Lo: "04", Hi: "02"}))
	if _, ok := ix.Scan("nope", Interval{}, at(10)); ok {
		t.Fatal("Scan on unindexed key reported ok")
	}
}

func TestCollectBeforeTrimsHistoryAndSortedLayer(t *testing.T) {
	ix := New([]Spec{{Key: "city"}})
	ix.ApplyTx([]graph.Op{createOp("v1"), setOp("v1", "city", "a")}, ts(1))
	ix.Apply(setOp("v1", "city", "b"), ts(2)) // closes a@1
	ix.ApplyTx([]graph.Op{createOp("v2"), setOp("v2", "city", "c")}, ts(3))
	ix.Apply(deleteOp("v2"), ts(4)) // closes c@3

	if n := ix.NumPostings(); n != 3 {
		t.Fatalf("NumPostings = %d, want 3", n)
	}
	removed := ix.CollectBefore(ts(10))
	if removed != 2 {
		t.Fatalf("CollectBefore removed %d, want 2", removed)
	}
	if n := ix.NumPostings(); n != 1 {
		t.Fatalf("NumPostings after GC = %d, want 1", n)
	}
	// Value "a" and "c" candidate sets are gone; the sorted layer must
	// not hand range scans dangling values.
	ids, _ := ix.Scan("city", Interval{}, at(20))
	wantIDs(t, ids, "v1")
	// Live postings survive any watermark.
	wantIDs(t, lookup(t, ix, "city", "b", 20), "v1")
}

func TestDetachAttachMovesFullHistory(t *testing.T) {
	src := New([]Spec{{Key: "city"}})
	dst := New([]Spec{{Key: "city"}})
	src.ApplyTx([]graph.Op{createOp("v1"), setOp("v1", "city", "a")}, ts(1))
	src.ApplyTx([]graph.Op{createOp("v2"), setOp("v2", "city", "a")}, ts(2))
	src.Apply(setOp("v1", "city", "b"), ts(3))

	p := src.Detach([]graph.VertexID{"v1"})
	if p.Empty() {
		t.Fatal("detach returned empty bundle")
	}
	// Wire roundtrip, exactly as migration ships it.
	dec, err := DecodePostings(EncodePostings(p))
	if err != nil {
		t.Fatalf("codec roundtrip: %v", err)
	}
	dst.Attach(dec)

	wantIDs(t, lookup(t, src, "city", "a", 10), "v2")
	wantIDs(t, lookup(t, src, "city", "b", 10))
	wantIDs(t, lookup(t, dst, "city", "b", 10), "v1")
	wantIDs(t, lookup(t, dst, "city", "a", 2), "v1") // history moved too

	// Chain state moved with the live posting: a later write at the
	// target supersedes correctly, and delete/recreate keeps incarnation
	// ordinals consistent.
	dst.Apply(setOp("v1", "city", "c"), ts(5))
	wantIDs(t, lookup(t, dst, "city", "b", 10))
	wantIDs(t, lookup(t, dst, "city", "c", 10), "v1")
	dst.Apply(deleteOp("v1"), ts(6))
	dst.ApplyTx([]graph.Op{createOp("v1"), setOp("v1", "city", "a")}, ts(7))
	wantIDs(t, lookup(t, dst, "city", "c", 6), "v1")
	wantIDs(t, lookup(t, dst, "city", "a", 8), "v1")
}

func TestInsertRecordReconcilesAndSuppressesReplay(t *testing.T) {
	ix := New([]Spec{{Key: "city"}})
	rec := &graph.VertexRecord{
		ID:     "v1",
		Props:  map[string]string{"city": "a"},
		LastTS: ts(5),
	}
	ix.InsertRecord(rec)
	wantIDs(t, lookup(t, ix, "city", "a", 6), "v1")

	// An operation the record already includes must not re-apply.
	ix.Apply(setOp("v1", "city", "stale"), ts(4))
	wantIDs(t, lookup(t, ix, "city", "a", 6), "v1")
	wantIDs(t, lookup(t, ix, "city", "stale", 6))

	// Idempotent: reconciling the same record changes nothing.
	ix.InsertRecord(rec)
	if n := ix.NumPostings(); n != 1 {
		t.Fatalf("NumPostings = %d, want 1", n)
	}

	// A NEWER record (paged in after more commits) supersedes.
	ix.InsertRecord(&graph.VertexRecord{
		ID:     "v1",
		Props:  map[string]string{"city": "b"},
		LastTS: ts(9),
	})
	wantIDs(t, lookup(t, ix, "city", "a", 6), "v1") // history preserved
	wantIDs(t, lookup(t, ix, "city", "b", 10), "v1")
	wantIDs(t, lookup(t, ix, "city", "a", 10))

	// A record dropping the key closes the posting.
	ix.InsertRecord(&graph.VertexRecord{ID: "v1", LastTS: ts(12)})
	wantIDs(t, lookup(t, ix, "city", "b", 10), "v1")
	wantIDs(t, lookup(t, ix, "city", "b", 13))
}

// TestDisjointVerticesApplyConcurrently exercises the footprint contract:
// transactions on disjoint vertices — including ones landing in the SAME
// (key, value) candidate set — may apply from concurrent workers.
func TestDisjointVerticesApplyConcurrently(t *testing.T) {
	ix := New([]Spec{{Key: "city"}})
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := graph.VertexID(rune('a'+w)) + graph.VertexID(rune('0'+i%10))
				n := uint64(w*perWorker + i + 1)
				ops := []graph.Op{setOp(v, "city", "x")}
				if i < 10 {
					ops = append([]graph.Op{createOp(v)}, ops...)
				}
				ix.ApplyTx(ops, ts(n))
			}
		}(w)
	}
	wg.Wait()
	ids, _ := ix.Lookup("city", "x", at(uint64(workers*perWorker)+1))
	if len(ids) != workers*10 {
		t.Fatalf("visible vertices = %d, want %d", len(ids), workers*10)
	}
}
