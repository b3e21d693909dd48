// BenchmarkIndexLookup measures the cost of "find all vertices where
// city=X" on a 100k-vertex graph three ways:
//
//   - indexed: Client.Lookup through the secondary index — a strictly
//     serializable scatter-gather snapshot read (Config.Indexes);
//   - fullscan: what an application without indexes does today — read
//     every vertex record from the backing store and filter (the
//     ID-registry-plus-scan baseline the index replaces);
//   - relational: the internal/relational hash-index baseline (§6.1's
//     MySQL stand-in) probing an equivalent table, as a lower bound with
//     no consistency machinery at all.
//
// The acceptance bar is indexed ≥10x faster than fullscan at this scale;
// in practice the gap is several orders of magnitude, because the index
// touches O(matches) postings while the scan decodes 100k records.
package weaver_test

import (
	"fmt"
	"testing"

	"weaver"
	"weaver/internal/relational"
)

func BenchmarkIndexLookup(b *testing.B) {
	const (
		nV    = 100_000
		nVals = 1000 // ~100 matches per value
	)
	c, err := weaver.Open(weaver.Config{
		Gatekeepers: 2,
		Shards:      4,
		Indexes:     []weaver.IndexSpec{{Key: "city"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	city := func(i int) string { return fmt.Sprintf("c%03d", i%nVals) }
	ids := make([]weaver.VertexID, nV)
	vs := make([]weaver.BulkVertex, nV)
	table := relational.NewTable("users", "city")
	for i := 0; i < nV; i++ {
		ids[i] = weaver.VertexID(fmt.Sprintf("u%06d", i))
		vs[i] = weaver.BulkVertex{ID: ids[i], Props: map[string]string{"city": city(i)}}
		table.Insert(relational.Row{"id": string(ids[i]), "city": city(i)})
	}
	if _, err := c.BulkLoadGraph(vs, nil); err != nil {
		b.Fatal(err)
	}
	cl := c.Client()
	want := nV / nVals

	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, _, err := cl.Lookup("city", city(i))
			if err != nil || len(got) != want {
				b.Fatalf("lookup %q: %d matches err=%v, want %d", city(i), len(got), err, want)
			}
		}
	})
	b.Run("fullscan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			target := city(i)
			got := 0
			for _, id := range ids {
				d, ok, err := cl.GetVertex(id)
				if err != nil {
					b.Fatal(err)
				}
				if ok && d.Props["city"] == target {
					got++
				}
			}
			if got != want {
				b.Fatalf("scan %q: %d matches, want %d", target, got, want)
			}
		}
	})
	b.Run("relational", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows := table.Lookup("city", city(i))
			if len(rows) != want {
				b.Fatalf("relational %q: %d rows, want %d", city(i), len(rows), want)
			}
		}
	})
}
