package weaver

import (
	"fmt"
	"sync"
	"testing"
)

// TestWireFramesEndToEnd runs a full mixed workload over the in-process
// fabric, where every gatekeeper↔shard message round-trips through the
// binary frame codec (encode, CRC, decode) exactly as it would over TCP:
// commits, node programs, multi-hop traversals, and index lookups.
func TestWireFramesEndToEnd(t *testing.T) {
	cfg := testConfig(2, 3)
	cfg.Indexes = []IndexSpec{{Key: "city"}}
	c := openTest(t, cfg)
	cl := c.Client()

	// Commit a chain graph plus indexed properties.
	const n = 24
	if _, err := cl.RunTx(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			v := VertexID(fmt.Sprintf("v%d", i))
			tx.CreateVertex(v)
			if i%3 == 0 {
				tx.SetProperty(v, "city", "ithaca")
			}
		}
		for i := 0; i < n-1; i++ {
			tx.CreateEdge(VertexID(fmt.Sprintf("v%d", i)), VertexID(fmt.Sprintf("v%d", i+1)))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Multi-hop traversal crosses shard boundaries — every hop batch is a
	// framed ProgHops/ProgDelta exchange.
	ids, _, err := cl.Traverse("v0", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != n {
		t.Fatalf("BFS visited %d vertices, want %d", len(ids), n)
	}
	dist, found, err := cl.ShortestPath("v0", "v10")
	if err != nil || !found || dist != 10 {
		t.Fatalf("shortest path = %d,%v,%v want 10", dist, found, err)
	}

	// Index lookup rides framed IndexLookup/IndexResult messages.
	got, _, err := cl.Lookup("city", "ithaca")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != (n+2)/3 {
		t.Fatalf("lookup returned %d vertices, want %d: %v", len(got), (n+2)/3, got)
	}

	// Cross-gatekeeper read: commit through gk 0, read through gk 1.
	cl0, _ := c.ClientAt(0)
	cl1, _ := c.ClientAt(1)
	if _, err := cl0.RunTx(func(tx *Tx) error {
		tx.CreateVertex("fresh")
		tx.SetProperty("fresh", "v", "1")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	d, ok, err := cl1.GetNode("fresh")
	if err != nil || !ok || d.Props["v"] != "1" {
		t.Fatalf("cross-gatekeeper read over frames: %+v ok=%v err=%v", d, ok, err)
	}

	// Concurrent writers: framed TxForward/TxApplied under contention.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wcl := c.Client()
			for i := 0; i < 5; i++ {
				if _, err := wcl.RunTx(func(tx *Tx) error {
					v := VertexID(fmt.Sprintf("w%d-%d", w, i))
					tx.CreateVertex(v)
					tx.SetProperty(v, "n", fmt.Sprint(i))
					return nil
				}); err != nil {
					errs <- fmt.Errorf("writer %d tx %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		v, ok, err := cl.GetVertex(VertexID(fmt.Sprintf("w%d-4", w)))
		if err != nil || !ok {
			t.Fatalf("writer %d vertex missing: ok=%v err=%v", w, ok, err)
		}
		if v.Props["n"] != "4" {
			t.Fatalf("writer %d props lost over frames: %+v", w, v)
		}
	}
}
