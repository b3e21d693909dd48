//go:build !race

package weaver

import (
	"fmt"
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
// (GetNode), 110 (GetEdges) and 96 (CountEdges). The race detector
// allocates on its own, hence the build tag.
const (
	getNodeAllocBudget    = 53
	getEdgesAllocBudget   = 62
	countEdgesAllocBudget = 49
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
