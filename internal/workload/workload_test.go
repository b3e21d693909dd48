package workload

import "testing"

func TestSocialGraphShape(t *testing.T) {
	g := Social(1000, 5, 42)
	if len(g.Vertices) != 1000 {
		t.Fatalf("vertices = %d", len(g.Vertices))
	}
	if len(g.Edges) < 3000 {
		t.Fatalf("too few edges: %d", len(g.Edges))
	}
	// Power-law check: max in-degree far exceeds average.
	indeg := map[string]int{}
	for _, e := range g.Edges {
		indeg[string(e.To)]++
	}
	max, sum := 0, 0
	for _, d := range indeg {
		sum += d
		if d > max {
			max = d
		}
	}
	avg := float64(sum) / float64(len(indeg))
	if float64(max) < 5*avg {
		t.Fatalf("degree distribution not skewed: max=%d avg=%.1f", max, avg)
	}
	// No self-loops.
	for _, e := range g.Edges {
		if e.From == e.To {
			t.Fatalf("self loop at %s", e.From)
		}
	}
}

func TestSocialDeterministic(t *testing.T) {
	a := Social(200, 3, 7)
	b := Social(200, 3, 7)
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("generator not deterministic")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestRandomGraph(t *testing.T) {
	g := Random(500, 2000, 1)
	if len(g.Vertices) != 500 {
		t.Fatalf("vertices = %d", len(g.Vertices))
	}
	if len(g.Edges) < 1900 || len(g.Edges) > 2000 {
		t.Fatalf("edges = %d, want ~2000 (minus self-loop skips)", len(g.Edges))
	}
	for _, e := range g.Edges {
		if e.From == e.To {
			t.Fatal("self loop")
		}
	}
}

func TestBlockchainGrowth(t *testing.T) {
	bc := NewBlockchain(500, 9)
	early, late := 0, 0
	for h := 0; h < 50; h++ {
		early += bc.TxsInBlock(h)
	}
	for h := 450; h < 500; h++ {
		late += bc.TxsInBlock(h)
	}
	if late < 3*early {
		t.Fatalf("late blocks (%d txs) should far exceed early blocks (%d txs)", late, early)
	}
}

func TestBlockchainGenerate(t *testing.T) {
	bc := NewBlockchain(100, 5)
	var blocks int
	var txs int
	seenTx := map[string]bool{}
	bc.Generate(func(bv BlockVertex) {
		blocks++
		if blocks > 1 && bv.Prev == "" {
			t.Fatal("non-genesis block missing prev link")
		}
		for _, tv := range bv.Txs {
			txs++
			if seenTx[string(tv.Tx)] {
				t.Fatalf("duplicate tx %s", tv.Tx)
			}
			seenTx[string(tv.Tx)] = true
			for _, in := range tv.Inputs {
				if !seenTx[string(in)] {
					t.Fatalf("tx %s spends unseen input %s", tv.Tx, in)
				}
			}
			if len(tv.Outputs) == 0 {
				t.Fatalf("tx %s has no outputs", tv.Tx)
			}
		}
	})
	if blocks != 100 {
		t.Fatalf("blocks = %d", blocks)
	}
	if txs != bc.Txs {
		t.Fatalf("generated %d txs, planned %d", txs, bc.Txs)
	}
}

func TestBlockchainDeterministic(t *testing.T) {
	collect := func() []string {
		bc := NewBlockchain(50, 11)
		var out []string
		bc.Generate(func(bv BlockVertex) {
			for _, tv := range bv.Txs {
				out = append(out, string(tv.Tx))
				for _, in := range tv.Inputs {
					out = append(out, string(in))
				}
			}
		})
		return out
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatal("not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("position %d differs", i)
		}
	}
}
