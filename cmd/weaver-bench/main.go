// Command weaver-bench prints the paper's evaluation — §6 only: table 1,
// figures 7–14 and the §4.6 partitioner ablation, at configurable scale,
// as paper-style terminal tables. Numbers about this system's own speed
// come from `go run ./benchmark`.
//
//	weaver-bench                          # everything, default scale
//	weaver-bench -experiment fig9a        # one experiment
//	weaver-bench -scale 4 -duration 2s    # larger workloads, longer runs
//
// An unknown -experiment name exits 2 and lists the valid ones.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"weaver/internal/bench"
	"weaver/internal/experiments"
	"weaver/internal/graph"
	"weaver/internal/partition"
	"weaver/internal/workload"
)

func main() {
	var (
		exp      = flag.String("experiment", "all", "experiment to run; an unknown name exits 2 listing the valid ones")
		scale    = flag.Float64("scale", 1.0, "workload scale multiplier")
		duration = flag.Duration("duration", 800*time.Millisecond, "measurement window per throughput point")
		clients  = flag.Int("clients", 24, "concurrent clients")
		gks      = flag.Int("gatekeepers", 3, "gatekeepers for non-sweep experiments")
		shards   = flag.Int("shards", 4, "shards for non-sweep experiments")
		maxGK    = flag.Int("max-gatekeepers", 6, "gatekeeper sweep bound (fig12)")
		maxShard = flag.Int("max-shards", 8, "shard sweep bound (fig13)")
		seed     = flag.Int64("seed", 1, "workload seed")
		wan      = flag.Duration("bcinfo-wan", 0, "simulated Blockchain.info WAN delay (paper notes ~13ms)")
	)
	flag.Parse()

	o := experiments.Default()
	o.SocialV = int(float64(8000) * *scale)
	o.SocialM = 8
	o.Blocks = int(float64(400) * *scale)
	o.RandV = int(float64(5000) * *scale)
	o.RandE = int(float64(16000) * *scale)
	o.Clients = *clients
	o.Duration = *duration
	o.Queries = int(60 * *scale)
	o.Gatekeepers, o.Shards = *gks, *shards
	o.Seed = *seed
	o.BCInfoWAN = *wan

	// The one table of experiments: it is what runs, in this order, and
	// what an unknown name is checked against.
	table := []struct {
		name string
		fn   func() (fmt.Stringer, error)
	}{
		{"table1", func() (fmt.Stringer, error) { return table1(), nil }},
		{"fig7", func() (fmt.Stringer, error) { return experiments.Fig7(o) }},
		{"fig8", func() (fmt.Stringer, error) { return experiments.Fig8(o) }},
		{"fig9a", func() (fmt.Stringer, error) { return experiments.Fig9a(o) }},
		{"fig9b", func() (fmt.Stringer, error) { return experiments.Fig9b(o) }},
		{"fig10", func() (fmt.Stringer, error) { return experiments.Fig10(o) }},
		{"fig11", func() (fmt.Stringer, error) { return experiments.Fig11(o) }},
		{"fig12", func() (fmt.Stringer, error) { return experiments.Fig12(o, *maxGK) }},
		{"fig13", func() (fmt.Stringer, error) { return experiments.Fig13(o, *maxShard) }},
		{"fig14", func() (fmt.Stringer, error) {
			return experiments.Fig14(o, 0.5, []time.Duration{ // write-heavy: stresses ordering
				10 * time.Microsecond, 100 * time.Microsecond, time.Millisecond,
				10 * time.Millisecond, 100 * time.Millisecond, time.Second,
			})
		}},
		{"ablation-partition", func() (fmt.Stringer, error) { return ablationPartition(o) }},
	}

	ran := false
	for _, e := range table {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		fmt.Printf("── %s ──\n", e.name)
		t0 := time.Now()
		res, err := e.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(res)
		fmt.Printf("(%s in %v)\n\n", e.name, time.Since(t0).Round(time.Millisecond))
	}
	if !ran {
		names := []string{"all"}
		for _, e := range table {
			names = append(names, e.name)
		}
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: %s\n", *exp, strings.Join(names, " "))
		os.Exit(2)
	}
}

// table1 prints the TAO workload definition (Table 1) as measured from the
// generator.
func table1() fmt.Stringer {
	mix := workload.TAOMix()
	r := rand.New(rand.NewSource(42))
	const n = 1_000_000
	counts := map[workload.OpKind]int{}
	for i := 0; i < n; i++ {
		counts[mix.Sample(r)]++
	}
	t := bench.NewTable("operation", "share%")
	for _, k := range []workload.OpKind{workload.OpGetEdges, workload.OpCountEdges,
		workload.OpGetNode, workload.OpCreateEdge, workload.OpDeleteEdge} {
		t.Row(k.String(), float64(counts[k])/n*100)
	}
	return stringer("Table 1: TAO operation mix (sampled)\n" + t.String())
}

// ablationPartition compares hash vs LDG streaming partitioning edge-cut on
// the social graph — the locality mechanism of §4.6 that the paper disables
// for its benchmarks.
func ablationPartition(o experiments.Options) (fmt.Stringer, error) {
	g := workload.Social(o.SocialV, o.SocialM, o.Seed)
	edges := make([][2]graph.VertexID, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = [2]graph.VertexID{e.From, e.To}
	}
	t := bench.NewTable("shards", "hash edge-cut%", "LDG edge-cut%")
	for _, shards := range []int{2, 4, 8} {
		hash := partition.NewHash(shards)
		ldg := partition.NewLDG(shards, len(g.Vertices), 0.1)
		adj := map[graph.VertexID][]graph.VertexID{}
		for _, e := range g.Edges {
			adj[e.From] = append(adj[e.From], e.To)
			adj[e.To] = append(adj[e.To], e.From)
		}
		for _, v := range g.Vertices {
			ldg.Place(v, adj[v])
		}
		hc := partition.EdgeCut(hash, edges)
		lc := partition.EdgeCut(ldg.Assignments(hash), edges)
		t.Row(shards, float64(hc)/float64(len(edges))*100, float64(lc)/float64(len(edges))*100)
	}
	return stringer("Ablation (§4.6): streaming partitioner edge-cut vs hash\n" + t.String()), nil
}

type stringer string

func (s stringer) String() string { return string(s) }
