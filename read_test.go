package weaver

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"weaver/internal/gatekeeper"
	"weaver/internal/nodeprog"
	"weaver/internal/wire"
)

// readCases is every read the client offers, once through Client (a fresh
// timestamp, returned) and once through a ReadClient. Results are
// normalized (canon) so arrival order across shards does not matter.
var readCases = []probe{
	{"GetNode",
		func(cl *Client) (any, Timestamp, error) {
			d, ok, ts, err := cl.fresh().getNode("v03")
			return []any{d, ok}, ts, err
		},
		func(r *ReadClient) (any, error) {
			d, ok, err := r.GetNode("v03")
			return []any{d, ok}, err
		}},
	{"GetEdges",
		func(cl *Client) (any, Timestamp, error) { return cl.fresh().getEdges("v03") },
		func(r *ReadClient) (any, error) { return r.GetEdges("v03") }},
	{"CountEdges",
		func(cl *Client) (any, Timestamp, error) { return cl.fresh().countEdges("v03") },
		func(r *ReadClient) (any, error) { return r.CountEdges("v03") }},
	{"Traverse",
		func(cl *Client) (any, Timestamp, error) { return cl.Traverse("v00", "", "", 0) },
		func(r *ReadClient) (any, error) { return r.Traverse("v00", "", "", 0) }},
	{"Lookup",
		func(cl *Client) (any, Timestamp, error) { return cl.Lookup("city", "c0") },
		func(r *ReadClient) (any, error) { return r.Lookup("city", "c0") }},
	{"LookupWhere range",
		func(cl *Client) (any, Timestamp, error) {
			return cl.LookupWhere(0, Where{Key: "age", Op: OpGe, Value: "20"}, Where{Key: "age", Op: OpLe, Value: "60"})
		},
		func(r *ReadClient) (any, error) {
			return r.LookupWhere(0, Where{Key: "age", Op: OpGe, Value: "20"}, Where{Key: "age", Op: OpLe, Value: "60"})
		}},
	{"LookupWhere",
		func(cl *Client) (any, Timestamp, error) {
			return cl.LookupWhere(5, Where{Key: "city", Op: OpEq, Value: "c1"}, Where{Key: "age", Op: OpGt, Value: "30"})
		},
		func(r *ReadClient) (any, error) {
			return r.LookupWhere(5, Where{Key: "city", Op: OpEq, Value: "c1"}, Where{Key: "age", Op: OpGt, Value: "30"})
		}},
	{"forced broadcast",
		func(cl *Client) (any, Timestamp, error) {
			return cl.fresh().lookup(gatekeeper.LookupOptions{Wheres: wire.Eq("city", "c2"), ForceBroadcast: true})
		},
		func(r *ReadClient) (any, error) {
			ids, _, err := r.rd.lookup(gatekeeper.LookupOptions{Wheres: wire.Eq("city", "c2"), ForceBroadcast: true})
			return ids, err
		}},
	{"RunProgramWhere",
		func(cl *Client) (any, Timestamp, error) { return cl.RunProgramWhere("get_node", nil, "city", "c0") },
		func(r *ReadClient) (any, error) { return r.RunProgramWhere("get_node", nil, "city", "c0") }},
}

// canon sorts the order-free parts of a read result in place.
func canon(v any) any {
	switch x := v.(type) {
	case []any:
		for i := range x {
			x[i] = canon(x[i])
		}
	case *nodeprog.NodeData:
		if x != nil {
			canon(x.EdgesTo)
		}
	case []VertexID:
		sort.Slice(x, func(i, j int) bool { return x[i] < x[j] })
	case [][]byte: // raw per-visit results: decode NodeData so edge order cannot matter
		out := make([]string, len(x))
		for i, raw := range x {
			var d nodeprog.NodeData
			if err := nodeprog.Decode(raw, &d); err != nil {
				out[i] = string(raw)
				continue
			}
			out[i] = fmt.Sprint(canon(&d))
		}
		sort.Strings(out)
		return out
	}
	return v
}

// TestZeroTimestampReadClientFailsEveryRead: to the gatekeeper a zero read
// timestamp means "fresh", so a ReadClient holding one must refuse every
// read — with the one error — rather than silently return current data.
func TestZeroTimestampReadClientFailsEveryRead(t *testing.T) {
	cfg := testConfig(1, 1)
	cfg.Indexes = []IndexSpec{{Key: "city"}, {Key: "age"}}
	c := openTest(t, cfg)
	r := c.Client().At(Timestamp{})
	for _, rc := range readCases {
		if _, err := rc.at(r); !errors.Is(err, errZeroReadTS) {
			t.Errorf("%s: err = %v, want errZeroReadTS", rc.name, err)
		}
	}
	if _, err := r.RunProgram("get_node", nil, "p0"); !errors.Is(err, errZeroReadTS) {
		t.Errorf("RunProgram: err = %v, want errZeroReadTS", err)
	}
	if st := c.Stats().Gatekeepers[0]; st.ProgsStarted+st.LookupsStarted != 0 {
		t.Errorf("a zero-timestamp read reached the gatekeeper: %+v", st)
	}
}

// TestUnissuedTimestampReadClientFailsEveryRead: a historical read at a
// timestamp ahead of the gatekeepers' clocks — the other gatekeeper's
// component inflated, or a later epoch — is refused before it reaches a
// gatekeeper, so its components never enter a gatekeeper's clock and the
// owner's later commits keep their real-time order. A timestamp the
// cluster did issue still reads.
func TestUnissuedTimestampReadClientFailsEveryRead(t *testing.T) {
	cfg := testConfig(2, 1)
	cfg.Indexes = []IndexSpec{{Key: "city"}, {Key: "age"}}
	c := openTest(t, cfg)
	cl, err := c.ClientAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunTx(func(tx *Tx) error { tx.CreateVertex("p0"); return nil }); err != nil {
		t.Fatal(err)
	}
	snap := cl.Snapshot()
	inflated := snap
	inflated.Clock = append([]uint64(nil), snap.Clock...)
	inflated.Clock[1] += 1 << 20
	later := snap
	later.Epoch++
	for _, ts := range []Timestamp{inflated, later} {
		r := cl.At(ts)
		for _, rc := range readCases {
			if _, err := rc.at(r); !errors.Is(err, errUnissuedReadTS) {
				t.Errorf("%s at %v: err = %v, want errUnissuedReadTS", rc.name, ts, err)
			}
		}
	}
	if st := c.Stats().Gatekeepers[0]; st.ProgsStarted+st.LookupsStarted != 0 {
		t.Errorf("a read at an unissued timestamp reached the gatekeeper: %+v", st)
	}
	// Gatekeeper 0 learns gatekeeper 1's component only from gatekeeper
	// 1, whose clock only grows: sampled first, gatekeeper 0's entry is at
	// most gatekeeper 1's own clock sampled after it, however far either
	// has ticked meanwhile — and far below the inflated component.
	seen := c.gkAt(0).Now().Clock[1]
	own := c.gkAt(1).Now().Clock[1]
	if seen > own || seen >= inflated.Clock[1] {
		t.Errorf("gatekeeper 0 saw gatekeeper 1 at %d: past its own clock %d, or at the inflated %d",
			seen, own, inflated.Clock[1])
	}
	if _, ok, err := cl.At(snap).GetNode("p0"); err != nil || !ok {
		t.Errorf("read at an issued timestamp: ok=%v err=%v", ok, err)
	}
}

// TestReadsDoNotWaitForTimers: a read's ordering wait is a round trip, not
// a timer. With the periodic announces and NOPs an hour apart, the only way
// a shard's frontiers can pass a read is that the shard asks the
// gatekeepers holding the read back for a NOP past it. Every read kind —
// fresh point read, index lookup, historical point read — through each
// gatekeeper must answer correctly well inside ProgTimeout.
func TestReadsDoNotWaitForTimers(t *testing.T) {
	c := openTest(t, Config{
		Gatekeepers: 2, Shards: 2,
		AnnouncePeriod: time.Hour, NopPeriod: time.Hour,
		ProgTimeout: 3 * time.Second,
		Indexes:     []IndexSpec{{Key: "city"}},
	})
	within := func(what string, read func() error) {
		t.Helper()
		start := time.Now()
		if err := read(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%s took %v: the read waited for a timer", what, d)
		}
	}
	for gk := 0; gk < 2; gk++ {
		cl, err := c.ClientAt(gk)
		if err != nil {
			t.Fatal(err)
		}
		v, city := VertexID(fmt.Sprintf("v%d", gk)), fmt.Sprintf("city%d", gk)
		if _, err := cl.RunTx(func(tx *Tx) error {
			tx.CreateVertex(v)
			tx.SetProperty(v, "city", city)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// A second commit whose stamp is the historical read's: the vertex
		// and its city are visible there whatever that commit's own writes.
		info, err := cl.RunTx(func(tx *Tx) error {
			tx.SetProperty(v, "seen", "1")
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		getNode := func(get func(VertexID) (*nodeprog.NodeData, bool, error)) func() error {
			return func() error {
				d, ok, err := get(v)
				if err == nil && (!ok || d.Props["city"] != city) {
					err = fmt.Errorf("got %+v, %v; want %s with city %s", d, ok, v, city)
				}
				return err
			}
		}
		within(fmt.Sprintf("gk%d GetNode", gk), getNode(cl.GetNode))
		within(fmt.Sprintf("gk%d Lookup", gk), func() error {
			ids, _, err := cl.Lookup("city", city)
			if err == nil && (len(ids) != 1 || ids[0] != v) {
				err = fmt.Errorf("got %v, want [%s]", ids, v)
			}
			return err
		})
		within(fmt.Sprintf("gk%d At(commit).GetNode", gk), getNode(cl.At(info.TS).GetNode))
	}
}

// TestFreshReadsAskForNoNops: the gatekeeper that mints a fresh read asks
// for the NOPs its start shards wait for as it sends the read, so with the
// periodic announces and NOPs an hour apart, fresh point reads through
// either gatekeeper leave the shards asking for none. Reads the coordinator
// does not ask for — a historical read, a traversal's hops forwarded
// between shards — still park and ask, and answer well inside ProgTimeout.
func TestFreshReadsAskForNoNops(t *testing.T) {
	c := openTest(t, Config{
		Gatekeepers: 2, Shards: 2,
		AnnouncePeriod: time.Hour, NopPeriod: time.Hour,
		ProgTimeout: 3 * time.Second,
	})
	within := func(what string, read func() error) {
		t.Helper()
		start := time.Now()
		if err := read(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%s took %v: the read waited for a timer", what, d)
		}
	}
	// A binary tree of height 3, written through gatekeeper 0.
	tree := []VertexID{"r"}
	for i := 0; len(tree) < 15; i++ {
		tree = append(tree, tree[i]+"0", tree[i]+"1")
	}
	onShard := map[int]bool{}
	for _, v := range tree {
		onShard[c.Directory().Lookup(v)] = true
	}
	if len(onShard) != 2 {
		t.Fatalf("the tree lies on shards %v, want both", onShard)
	}
	cl0, _ := c.ClientAt(0)
	if _, err := cl0.RunTx(func(tx *Tx) error {
		tx.CreateVertex(tree[0])
		for i, v := range tree[1:] {
			tx.CreateVertex(v)
			tx.CreateEdge(tree[i/2], v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	snap := cl0.Snapshot()
	requests := func() uint64 { return c.Metrics().Counters["weaver_shard_nop_requests_total"] }
	for gk := 0; gk < 2; gk++ {
		cl, _ := c.ClientAt(gk)
		for i := 0; i < 200; i++ {
			v := tree[i%len(tree)]
			within(fmt.Sprintf("gk%d GetNode(%s)", gk, v), func() error {
				if _, ok, err := cl.GetNode(v); err != nil || !ok {
					return fmt.Errorf("ok=%v err=%v", ok, err)
				}
				return nil
			})
		}
	}
	if n := requests(); n != 0 {
		t.Fatalf("fresh point reads left weaver_shard_nop_requests_total at %d, want 0", n)
	}

	within("pinned GetNode", func() error {
		if _, ok, err := cl0.At(snap).GetNode("r"); err != nil || !ok {
			return fmt.Errorf("ok=%v err=%v", ok, err)
		}
		return nil
	})
	cl1, _ := c.ClientAt(1)
	within("depth-3 Traverse", func() error {
		got, _, err := cl1.Traverse("r", "", "", 3)
		if err == nil && len(got) != len(tree) {
			err = fmt.Errorf("visited %d vertices, want %d", len(got), len(tree))
		}
		return err
	})
	if requests() == 0 { // the counter is live: hops forwarded to the other shard asked
		t.Fatal("a traversal across both shards asked for no NOP")
	}
}
