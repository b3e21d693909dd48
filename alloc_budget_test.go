//go:build !race

package weaver

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// Allocation budget of a point read: every allocation one TAO read makes
// across the whole process — client, gatekeeper, fabric, shard and node
// program — measured on an in-process cluster of 2 gatekeepers and 2
// shards with the timers an hour apart and GC off, so nothing but the
// read runs. The counts are exact and repeat run to run; each budget is
// the measured value, so any new per-read allocation fails the test and
// raising one is an explicit edit here. Before the view, registration,
// timer, runBatch, mailbox and address cuts the same reads cost 102
// (GetNode), 110 (GetEdges) and 96 (CountEdges); before the shard reused
// one view and one Context for its visits, 53, 62 and 49; before a batch
// reused the shard's buffers, 48, 57 and 44; before the coordinator asked
// for a fresh read's NOPs as it minted the read (no shard-side NopRequest
// to receive and answer), 46, 55 and 42. The race detector allocates on
// its own, hence the build tag.
const (
	getNodeAllocBudget    = 42
	getEdgesAllocBudget   = 51
	countEdgesAllocBudget = 38
)

func TestPointReadAllocBudget(t *testing.T) {
	c := openTest(t, Config{
		Gatekeepers: 2, Shards: 2,
		AnnouncePeriod: time.Hour, NopPeriod: time.Hour,
		ProgTimeout: 10 * time.Second,
	})
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("v")
		tx.SetProperty("v", "k", "val")
		for i := 0; i < 8; i++ {
			to := VertexID(fmt.Sprintf("u%d", i))
			tx.CreateVertex(to)
			tx.CreateEdge("v", to)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	reads := []struct {
		name   string
		budget float64
		read   func() error
	}{
		{"GetNode", getNodeAllocBudget, func() error {
			d, ok, err := cl.GetNode("v")
			if err == nil && (!ok || d.NumEdges != 8 || d.Props["k"] != "val") {
				err = fmt.Errorf("got %+v ok=%v", d, ok)
			}
			return err
		}},
		{"GetEdges", getEdgesAllocBudget, func() error {
			to, err := cl.GetEdges("v")
			if err == nil && len(to) != 8 {
				err = fmt.Errorf("got %d edges", len(to))
			}
			return err
		}},
		{"CountEdges", countEdgesAllocBudget, func() error {
			n, err := cl.CountEdges("v")
			if err == nil && n != 8 {
				err = fmt.Errorf("counted %d edges", n)
			}
			return err
		}},
	}
	// A collection empties the sync.Pools (frame buffers, timers) and
	// makes the count depend on when it ran.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, r := range reads {
		var err error
		for i := 0; i < 200 && err == nil; i++ { // warm pools, maps and mailboxes
			err = r.read()
		}
		got := testing.AllocsPerRun(2000, func() {
			if e := r.read(); e != nil && err == nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		t.Logf("%s: %.2f allocs/read (budget %.0f)", r.name, got, r.budget)
		if got > r.budget {
			t.Errorf("%s: %.2f allocs per read, budget %.0f — the point-read path allocates more", r.name, got, r.budget)
		}
	}
}

// Allocation budget of a depth-3 traversal, measured like the point reads,
// over a tree: every vertex is reachable by exactly one path, so the visit
// set, the hop batches and the deltas are the same on every run, where a
// graph with cycles returns a schedule-dependent ball. The tree has fanout
// 8, the benchmark graph's out-degree, and height 4, split across both
// shards by hash; the traversal visits its top 585 vertices, each with 8
// out-edges. Before visits reused one view and one Context, built-ins sized
// their hops and a delta's results decoded into one copy, the same
// traversal cost 4,989 allocations; before a batch's hops decoded a
// repeated program name and params value once, 2,434; before a batch
// reused the shard's buffers and a query's states map came from a free
// list, 1,872; before the coordinator asked for the start shard's NOPs as
// it minted the traversal, 1,675.
//
// Bytes are budgeted beside the count, because bytes are what schedule
// collections. They vary by a few dozen between runs (map growth, pooled
// buffers), so that budget is the measured ~115,350 plus about 2 %; it
// was 343,410 before the shard's buffers were reused.
const (
	traverseAllocBudget = 1671
	traverseBytesBudget = 118_000
)

func TestTraverseAllocBudget(t *testing.T) {
	c := openTest(t, Config{
		Gatekeepers: 2, Shards: 2,
		AnnouncePeriod: time.Hour, NopPeriod: time.Hour,
		ProgTimeout: 10 * time.Second,
	})
	cl := c.Client()
	const fanout, height, depth = 8, 4, 3
	want := 0
	if _, err := cl.RunTx(func(tx *Tx) error {
		tx.CreateVertex("t")
		level := []VertexID{"t"}
		for d := 0; d < height; d++ {
			if d <= depth {
				want += len(level)
			}
			var next []VertexID
			for _, v := range level {
				for i := 0; i < fanout; i++ {
					to := VertexID(fmt.Sprintf("%s%d", v, i))
					tx.CreateVertex(to)
					tx.CreateEdge(v, to)
					next = append(next, to)
				}
			}
			level = next
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var err error
	traverse := func() {
		got, _, e := cl.Traverse("t", "", "", depth)
		if e == nil && len(got) != want {
			e = fmt.Errorf("visited %d vertices, want %d", len(got), want)
		}
		if e != nil && err == nil {
			err = e
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 50 && err == nil; i++ {
		traverse()
	}
	got := testing.AllocsPerRun(200, traverse)
	// Bytes, not counts, are what schedule collections: the heap's growth
	// since the last cycle triggers the next one.
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		traverse()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("traverse: %.2f allocs and %d bytes per traversal of %d vertices (budgets %d, %d)", got, bytes, want, traverseAllocBudget, traverseBytesBudget)
	if got > traverseAllocBudget {
		t.Errorf("traverse: %.2f allocs per traversal, budget %d — the hop path allocates more", got, traverseAllocBudget)
	}
	if bytes > traverseBytesBudget {
		t.Errorf("traverse: %d bytes allocated per traversal, budget %d — the hop path allocates more", bytes, traverseBytesBudget)
	}
}
