// Command weaver-load bulk-ingests an edge list into a Weaver cluster
// through the snapshot subsystem (Cluster.BulkLoad): LDG streaming
// placement, parallel per-shard segment builders, direct install into the
// backing store and shard graphs — no per-transaction commits. With -wal
// the load finishes with a checkpoint, so reopening the store recovers
// from the snapshot instead of replaying history.
//
// Input is a text edge list ("src dst" per line, '#' comments, blank lines
// ignored) from -edges, or a generated graph:
//
//	weaver-load -edges graph.txt -shards 4
//	weaver-load -synthetic social -vertices 100000 -degree 8 -shards 8
//	weaver-load -synthetic random -vertices 50000 -degree 4 -wal /tmp/weaver.wal
//
// After loading it prints placement and throughput statistics and runs a
// smoke traversal through the loaded graph.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"weaver"
	"weaver/internal/graph"
	"weaver/internal/workload"
)

func main() {
	var (
		edgesPath = flag.String("edges", "", "edge-list file (\"src dst\" per line; \"-\" = stdin)")
		synthetic = flag.String("synthetic", "", "generate a graph instead: social | random")
		vertices  = flag.Int("vertices", 100000, "synthetic graph vertex count")
		degree    = flag.Int("degree", 8, "synthetic graph average out-degree")
		seed      = flag.Int64("seed", 1, "synthetic graph seed")
		gks       = flag.Int("gatekeepers", 2, "gatekeeper count")
		shards    = flag.Int("shards", 4, "shard count")
		wal       = flag.String("wal", "", "WAL path: makes the store durable and checkpoints after the load")
		noLDG     = flag.Bool("no-ldg", false, "disable LDG placement (hash partitioning)")
		verify    = flag.Bool("verify", true, "run a smoke traversal after loading")
	)
	flag.Parse()

	verts, edges, err := inputGraph(*edgesPath, *synthetic, *vertices, *degree, *seed)
	if err != nil {
		log.Fatalf("weaver-load: %v", err)
	}
	if len(verts) == 0 && len(edges) == 0 {
		log.Fatal("weaver-load: empty input (set -edges or -synthetic)")
	}

	cfg := weaver.Config{
		Gatekeepers: *gks,
		Shards:      *shards,
		WALPath:     *wal,
	}
	if !*noLDG {
		cfg.Directory = weaver.NewMappedDirectory(*shards)
	}
	c, err := weaver.Open(cfg)
	if err != nil {
		log.Fatalf("weaver-load: open cluster: %v", err)
	}
	defer c.Close()

	st, err := c.BulkLoad(verts, edges)
	if err != nil {
		log.Fatalf("weaver-load: bulk load: %v", err)
	}

	eps := float64(st.Edges) / st.Elapsed.Seconds()
	placement := "hash"
	if st.LDG {
		placement = "LDG"
	}
	fmt.Printf("loaded %d vertices, %d edges in %v (%.0f edges/s, %s placement)\n",
		st.Vertices, st.Edges, st.Elapsed.Round(time.Millisecond), eps, placement)
	fmt.Printf("segments: %d (%.1f MiB encoded)   per-shard vertices: %v\n",
		st.Segments, float64(st.SegmentBytes)/(1<<20), st.PerShard)
	if st.Edges > 0 {
		fmt.Printf("edge cut: %d/%d (%.1f%%)\n", st.EdgeCut, st.Edges, float64(st.EdgeCut)/float64(st.Edges)*100)
	}
	if st.Checkpoint != nil {
		fmt.Printf("checkpoint: snapshot %d, %d entries in %d segments (WAL truncated)\n",
			st.Checkpoint.Seq, st.Checkpoint.Entries, st.Checkpoint.Segments)
	}

	if *verify {
		// Edge-list input has no explicit vertex list; start the smoke
		// traversal from the first edge's source.
		start := weaver.VertexID("")
		if len(verts) > 0 {
			start = verts[0]
		} else if len(edges) > 0 {
			start = edges[0].From
		}
		cl := c.Client()
		ids, _, err := cl.Traverse(start, "", "", 2)
		if err != nil {
			log.Fatalf("weaver-load: verify traversal from %s: %v", start, err)
		}
		fmt.Printf("verify: depth-2 traversal from %s reached %d vertices ✓\n", start, len(ids))
	}
}

// inputGraph resolves the load input from flags.
func inputGraph(edgesPath, synthetic string, v, m int, seed int64) ([]weaver.VertexID, []weaver.BulkEdge, error) {
	switch {
	case edgesPath != "" && synthetic != "":
		return nil, nil, fmt.Errorf("set only one of -edges and -synthetic")
	case edgesPath != "":
		return readEdgeList(edgesPath)
	case synthetic != "":
		var g *workload.Graph
		switch synthetic {
		case "social":
			g = workload.Social(v, m, seed)
		case "random":
			g = workload.Random(v, v*m, seed)
		default:
			return nil, nil, fmt.Errorf("unknown -synthetic %q (want social or random)", synthetic)
		}
		edges := make([]weaver.BulkEdge, len(g.Edges))
		for i, e := range g.Edges {
			edges[i] = weaver.BulkEdge{From: e.From, To: e.To}
		}
		return g.Vertices, edges, nil
	default:
		return nil, nil, nil
	}
}

// readEdgeList parses a whitespace-separated edge list.
func readEdgeList(path string) ([]weaver.VertexID, []weaver.BulkEdge, error) {
	var r *os.File
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		r = f
	}
	var edges []weaver.BulkEdge
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("%s:%d: want \"src dst\", got %q", path, line, text)
		}
		edges = append(edges, weaver.BulkEdge{
			From: graph.VertexID(fields[0]),
			To:   graph.VertexID(fields[1]),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	// Vertices are implied by the edge list.
	return nil, edges, nil
}
