// Wire-path experiment: the cost of message serialization on the
// gatekeeper↔shard fabric. The paper's protocol puts a message exchange on
// every transaction commit and every node-program hop (§4.2), so codec
// cost is a direct tax on cluster throughput. This experiment records
// per-message micro-benchmarks of the binary frame codec and a
// saturated-cluster comparison with the codec forced onto every fabric
// send. (BENCH_6.json keeps the one-time comparison against gob, the
// seed's wire format, which no longer exists in the tree.)
package experiments

import (
	"fmt"
	"testing"
	"time"

	"weaver"
	"weaver/internal/bench"
	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/obs"
	"weaver/internal/transport"
	"weaver/internal/wire"
	"weaver/internal/workload"
)

// WireMicroRow is one micro-benchmark measurement.
type WireMicroRow struct {
	Message     string  `json:"message"`
	Path        string  `json:"path"` // encode | decode
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	WireBytes   int     `json:"wire_bytes"` // encoded size of the sample message
}

// WireClusterRow is one saturated-cluster throughput measurement.
type WireClusterRow struct {
	Mode       string  `json:"mode"` // direct | frames
	Throughput float64 `json:"ops_per_sec"`
	P50Micros  float64 `json:"p50_us"`
	P99Micros  float64 `json:"p99_us"`
}

// WireStageRow is one pipeline-stage histogram from the cluster's
// observability registry, captured at the end of the framed cluster run.
// Latency stages report microseconds; size stages (batch/fan-out) report
// raw units.
type WireStageRow struct {
	Stage string  `json:"stage"`
	Unit  string  `json:"unit"` // us | count
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Mean  float64 `json:"mean"`
}

// WireResult is the §4.2 serialization experiment output (BENCH_6.json;
// BENCH_7.json adds the per-stage pipeline histograms).
type WireResult struct {
	Title   string           `json:"title"`
	Micro   []WireMicroRow   `json:"micro"`
	Cluster []WireClusterRow `json:"cluster"`
	Stages  []WireStageRow   `json:"stages"`
}

func (r WireResult) String() string {
	mt := bench.NewTable("message", "path", "ns/op", "B/op", "allocs/op", "wire bytes")
	for _, m := range r.Micro {
		mt.Row(m.Message, m.Path, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp, m.WireBytes)
	}
	ct := bench.NewTable("fabric mode", "ops/s", "p50 µs", "p99 µs")
	for _, c := range r.Cluster {
		ct.Row(c.Mode, c.Throughput, c.P50Micros, c.P99Micros)
	}
	st := bench.NewTable("pipeline stage", "unit", "count", "p50", "p90", "p99", "mean")
	for _, s := range r.Stages {
		st.Row(s.Stage, s.Unit, s.Count, s.P50, s.P90, s.P99, s.Mean)
	}
	return r.Title + "\n" + mt.String() +
		"\nsaturated cluster (commit + 2-hop program mix)\n" + ct.String() +
		"\npipeline stage histograms (framed run)\n" + st.String()
}

// stageHistograms are the pipeline-stage histograms the wire experiment
// reports, in pipeline order.
var stageHistograms = []struct{ name, unit string }{
	{"weaver_client_tx_seconds", "us"},
	{"weaver_gk_queue_wait_seconds", "us"},
	{"weaver_gk_mint_seconds", "us"},
	{"weaver_gk_store_commit_seconds", "us"},
	{"weaver_oracle_refine_wait_seconds", "us"},
	{"weaver_gk_forward_seconds", "us"},
	{"weaver_gk_commit_seconds", "us"},
	{"weaver_shard_queue_wait_seconds", "us"},
	{"weaver_shard_apply_seconds", "us"},
	{"weaver_shard_batch_txns", "count"},
	{"weaver_prog_hop_fanout", "count"},
}

// stageRows extracts the per-stage quantiles from a metrics snapshot.
func stageRows(snap obs.Snapshot) []WireStageRow {
	var rows []WireStageRow
	for _, sh := range stageHistograms {
		hs, ok := snap.Histograms[sh.name]
		if !ok || hs.Count == 0 {
			continue
		}
		scale := 1.0
		if sh.unit == "us" {
			scale = float64(time.Microsecond) // observations are ns
		}
		rows = append(rows, WireStageRow{
			Stage: sh.name, Unit: sh.unit, Count: hs.Count,
			P50:  float64(hs.Quantile(0.50)) / scale,
			P90:  float64(hs.Quantile(0.90)) / scale,
			P99:  float64(hs.Quantile(0.99)) / scale,
			Mean: hs.Mean() / scale,
		})
	}
	return rows
}

// wireSampleTx is a representative 4-op commit payload.
func wireSampleTx() wire.TxForward {
	mkts := func(c ...uint64) core.Timestamp { return core.Timestamp{Epoch: 1, Owner: 1, Clock: c} }
	return wire.TxForward{TS: mkts(7, 9, 4), Seq: 42, Ops: []graph.Op{
		{Kind: graph.OpCreateVertex, Vertex: "user/100232"},
		{Kind: graph.OpCreateEdge, Vertex: "user/100232", Edge: "e1.gk0.42#0", To: "user/55011"},
		{Kind: graph.OpSetEdgeProp, Vertex: "user/100232", Edge: "e1.gk0.42#0", Key: "kind", Value: "follows"},
		{Kind: graph.OpSetVertexProp, Vertex: "user/100232", Key: "city", Value: "ithaca"},
	}}
}

// wireSampleHops is a representative 2-hop program batch.
func wireSampleHops() wire.ProgHops {
	mkts := func(c ...uint64) core.Timestamp { return core.Timestamp{Epoch: 1, Owner: 0, Clock: c} }
	return wire.ProgHops{QID: mkts(5, 3, 1).ID(), TS: mkts(5, 3, 1), ReadTS: mkts(2, 1, 1),
		Coordinator: "gk/0", Hops: []wire.Hop{
			{ID: 1, Vertex: "user/100232", Program: "bfs", Params: []byte("depth=3"), Origin: -1},
			{ID: 2, Vertex: "user/55011", Program: "bfs", Origin: 1},
		}}
}

// wireMicro measures one message on both paths using the
// stdlib benchmark driver so ns/op and allocs/op come from the same
// machinery as `go test -bench`.
func wireMicro(name string, msg any) []WireMicroRow {
	encFrame, err := transport.AppendPayload(nil, msg)
	if err != nil {
		panic(err) // sample messages always encode
	}
	row := func(path string, r testing.BenchmarkResult) WireMicroRow {
		return WireMicroRow{Message: name, Path: path, WireBytes: len(encFrame),
			NsPerOp: float64(r.NsPerOp()), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
	}
	return []WireMicroRow{
		row("encode", testing.Benchmark(func(b *testing.B) {
			buf := make([]byte, 0, 4096)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, err = transport.AppendPayload(buf[:0], msg)
				if err != nil {
					b.Fatal(err)
				}
			}
		})),
		row("decode", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := transport.DecodePayload(encFrame); err != nil {
					b.Fatal(err)
				}
			}
		})),
	}
}

// wireCluster saturates one cluster configuration with a commit-plus-
// traversal mix and reports throughput, tail latency, and (when the
// registry is live) the per-stage pipeline histograms.
func wireCluster(o Options, frames, disableMetrics bool) (WireClusterRow, []WireStageRow, error) {
	mode := "direct"
	if frames {
		mode = "frames"
	}
	if disableMetrics {
		mode += "/metrics-off"
	}
	cfg := o.weaverConfig(o.Gatekeepers, o.Shards)
	cfg.WireFrames = frames
	cfg.DisableMetrics = disableMetrics
	c, err := weaver.Open(cfg)
	if err != nil {
		return WireClusterRow{}, nil, err
	}
	defer c.Close()
	g := workload.Social(o.SocialV/4, o.SocialM, o.Seed)
	if err := LoadSocialWeaver(c, g); err != nil {
		return WireClusterRow{}, nil, err
	}
	clients := make([]*weaver.Client, o.Clients)
	for i := range clients {
		clients[i] = c.Client()
	}
	qps, lat, errs := bench.Throughput(o.Clients, o.Duration, func(ci, iter int) error {
		cl := clients[ci]
		v := g.Vertices[(ci*7919+iter)%len(g.Vertices)]
		if iter%4 == 0 { // 25% writes: framed TxForward/TxApplied
			_, err := cl.RunTx(func(tx *weaver.Tx) error {
				tx.SetProperty(v, "seen", fmt.Sprint(iter))
				return nil
			})
			return err
		}
		_, err := cl.CountEdges(v) // node program: framed ProgHops/ProgDelta
		return err
	})
	if errs > 0 {
		return WireClusterRow{}, nil, fmt.Errorf("%s fabric: %d op errors", mode, errs)
	}
	row := WireClusterRow{Mode: mode, Throughput: qps,
		P50Micros: float64(lat.Percentile(50)) / float64(time.Microsecond),
		P99Micros: float64(lat.Percentile(99)) / float64(time.Microsecond)}
	return row, stageRows(c.Metrics()), nil
}

// Wire runs the serialization experiment: micro codec comparison plus the
// saturated-cluster sanity check that framing every fabric message does
// not cost cluster throughput.
func Wire(o Options) (WireResult, error) {
	res := WireResult{Title: "Wire path (§4.2): binary frame codec cost, direct vs framed fabric"}
	res.Micro = append(res.Micro, wireMicro("TxForward/4ops", wireSampleTx())...)
	res.Micro = append(res.Micro, wireMicro("ProgHops/2hops", wireSampleHops())...)
	for _, frames := range []bool{false, true} {
		row, stages, err := wireCluster(o, frames, false)
		if err != nil {
			return res, err
		}
		res.Cluster = append(res.Cluster, row)
		if frames {
			// The framed run's registry is the full pipeline picture:
			// commit, forward, wire transfer, shard queue/apply.
			res.Stages = stages
		}
	}
	return res, nil
}
