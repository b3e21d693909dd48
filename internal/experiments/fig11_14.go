package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"weaver"
	"weaver/internal/baseline/graphlab"
	"weaver/internal/bench"
	"weaver/internal/workload"
)

// Fig11Result compares BFS reachability latency distributions: Weaver vs
// GraphLab's async and sync engines (§6.3: Weaver 4.3×–9.4× lower latency).
type Fig11Result struct {
	Weaver, Async, Sync *bench.Latencies
}

// String renders percentiles per engine.
func (r Fig11Result) String() string {
	t := bench.NewTable("system", "p10", "p50", "p90", "mean")
	for _, s := range []struct {
		name string
		l    *bench.Latencies
	}{{"Weaver", r.Weaver}, {"GraphLab (async)", r.Async}, {"GraphLab (sync)", r.Sync}} {
		t.Row(s.name, s.l.Percentile(10), s.l.Percentile(50), s.l.Percentile(90), s.l.Mean())
	}
	return "Fig 11: BFS traversal latency on random digraph\n" + t.String()
}

// Fig11 runs reachability queries between uniformly random vertex pairs,
// sequentially with a single client (matching §6.3's methodology), on
// Weaver and both GraphLab engines.
func Fig11(o Options) (Fig11Result, error) {
	g := workload.Random(o.RandV, o.RandE, o.Seed)
	res := Fig11Result{Weaver: &bench.Latencies{}, Async: &bench.Latencies{}, Sync: &bench.Latencies{}}

	c, err := o.OpenWeaver(o.Gatekeepers, o.Shards)
	if err != nil {
		return res, err
	}
	defer c.Close()
	if err := LoadSocialWeaver(c, g); err != nil {
		return res, err
	}
	gl := graphlab.NewEngine(LoadRandomGraphLab(g), o.GraphLab)

	cl := c.Client()
	r := rand.New(rand.NewSource(o.Seed + 99))
	type pair struct{ s, t int }
	pairs := make([]pair, o.Queries)
	for i := range pairs {
		pairs[i] = pair{r.Intn(len(g.Vertices)), r.Intn(len(g.Vertices))}
	}

	for _, p := range pairs {
		s, tgt := g.Vertices[p.s], g.Vertices[p.t]
		t0 := time.Now()
		wGot, err := cl.Reachable(s, tgt)
		if err != nil {
			return res, fmt.Errorf("weaver reachability: %w", err)
		}
		res.Weaver.Add(time.Since(t0))

		t0 = time.Now()
		aGot := gl.ReachableAsync(s, tgt)
		res.Async.Add(time.Since(t0))

		t0 = time.Now()
		sGot := gl.ReachableSync(s, tgt)
		res.Sync.Add(time.Since(t0))

		if wGot != aGot || wGot != sGot {
			return res, fmt.Errorf("systems disagree on %s→%s: weaver=%v async=%v sync=%v", s, tgt, wGot, aGot, sGot)
		}
	}
	return res, nil
}

// Fig12Row is one point of the gatekeeper scaling curve.
type Fig12Row struct {
	Gatekeepers int
	Throughput  float64
}

// Fig12Result is the gatekeeper scaling experiment (§6.4: get_node
// throughput scales linearly with gatekeepers).
type Fig12Result struct {
	Rows []Fig12Row
}

// String renders the curve.
func (r Fig12Result) String() string {
	t := bench.NewTable("gatekeepers", "get_node tx/s", "speedup")
	base := 0.0
	for _, row := range r.Rows {
		if base == 0 {
			base = row.Throughput
		}
		t.Row(row.Gatekeepers, row.Throughput, row.Throughput/base)
	}
	return "Fig 12: get_node throughput vs gatekeepers\n" + t.String()
}

// Fig12 sweeps the gatekeeper count with a fixed shard bank and measures
// get_node throughput (vertex-local programs keep shards cheap, so the
// gatekeepers are the bottleneck, §6.4).
func Fig12(o Options, maxGK int) (Fig12Result, error) {
	g := workload.Random(o.RandV, o.RandE, o.Seed)
	var res Fig12Result
	for gks := 1; gks <= maxGK; gks++ {
		c, err := o.OpenWeaver(gks, o.Shards)
		if err != nil {
			return res, err
		}
		if err := LoadSocialWeaver(c, g); err != nil {
			c.Close()
			return res, err
		}
		// Clients scale with gatekeepers so offered load is not the
		// bottleneck: each op is latency-bound (readiness waits on τ
		// and the NOP period), so saturating a gatekeeper takes many
		// concurrent clients.
		nClients := 48 * gks
		if o.Clients*gks > nClients {
			nClients = o.Clients * gks
		}
		clients := make([]*weaver.Client, nClients)
		rngs := make([]*rand.Rand, nClients)
		for i := range clients {
			clients[i] = c.Client()
			rngs[i] = rand.New(rand.NewSource(o.Seed + int64(i)))
		}
		qps, _, errs := bench.Throughput(nClients, o.Duration, func(ci, _ int) error {
			v := g.Vertices[rngs[ci].Intn(len(g.Vertices))]
			_, _, err := clients[ci].RunProgram("get_node", nil, v)
			return err
		})
		c.Close()
		if errs > 0 {
			return res, fmt.Errorf("fig12 gk=%d: %d errors", gks, errs)
		}
		res.Rows = append(res.Rows, Fig12Row{Gatekeepers: gks, Throughput: qps})
	}
	return res, nil
}

// Fig13Row is one point of the shard scaling curve.
type Fig13Row struct {
	Shards     int
	Throughput float64
}

// Fig13Result is the shard scaling experiment (§6.4: local clustering
// coefficient throughput scales linearly with shards).
type Fig13Result struct {
	Rows []Fig13Row
}

// String renders the curve.
func (r Fig13Result) String() string {
	t := bench.NewTable("shards", "clustering tx/s", "speedup")
	base := 0.0
	for _, row := range r.Rows {
		if base == 0 {
			base = row.Throughput
		}
		t.Row(row.Shards, row.Throughput, row.Throughput/base)
	}
	return "Fig 13: clustering-coefficient throughput vs shards\n" + t.String()
}

// Fig13 sweeps the shard count with fixed gatekeepers and measures local
// clustering-coefficient throughput (the 1-hop fan-out makes shards do the
// work, §6.4).
func Fig13(o Options, maxShards int) (Fig13Result, error) {
	g := workload.Random(o.RandV, o.RandE, o.Seed)
	var res Fig13Result
	for shards := 1; shards <= maxShards; shards++ {
		c, err := o.OpenWeaver(o.Gatekeepers, shards)
		if err != nil {
			return res, err
		}
		if err := LoadSocialWeaver(c, g); err != nil {
			c.Close()
			return res, err
		}
		nClients := 48
		if o.Clients > nClients {
			nClients = o.Clients
		}
		clients := make([]*weaver.Client, nClients)
		rngs := make([]*rand.Rand, nClients)
		for i := range clients {
			clients[i] = c.Client()
			rngs[i] = rand.New(rand.NewSource(o.Seed + int64(i)))
		}
		qps, _, errs := bench.Throughput(nClients, o.Duration, func(ci, _ int) error {
			v := g.Vertices[rngs[ci].Intn(len(g.Vertices))]
			_, err := clients[ci].ClusteringCoefficient(v)
			return err
		})
		c.Close()
		if errs > 0 {
			return res, fmt.Errorf("fig13 shards=%d: %d errors", shards, errs)
		}
		res.Rows = append(res.Rows, Fig13Row{Shards: shards, Throughput: qps})
	}
	return res, nil
}

// Fig14Row is one point of the coordination-overhead tradeoff.
type Fig14Row struct {
	Tau            time.Duration
	AnnouncesPerOp float64
	OraclePerOp    float64
}

// Fig14Result is the τ sweep (§6.5): small τ burns gatekeeper announce
// messages; large τ pushes ordering onto the timeline oracle.
type Fig14Result struct {
	Rows []Fig14Row
}

// String renders the tradeoff table.
func (r Fig14Result) String() string {
	t := bench.NewTable("tau", "announce/op", "oracle/op")
	for _, row := range r.Rows {
		t.Row(row.Tau, row.AnnouncesPerOp, row.OraclePerOp)
	}
	return "Fig 14: coordination overhead vs announce period τ\n" + t.String()
}

// Fig14 runs a fixed mixed workload (concurrent writers on overlapping
// vertices plus node-program readers from different gatekeepers) at each τ
// and counts both coordination channels, normalized per operation.
func Fig14(o Options, taus []time.Duration) (Fig14Result, error) {
	g := workload.Social(o.SocialV/2+2, o.SocialM, o.Seed)
	var res Fig14Result
	for _, tau := range taus {
		opt := o
		opt.Tau = tau
		c, err := opt.OpenWeaver(max(o.Gatekeepers, 3), o.Shards)
		if err != nil {
			return res, err
		}
		if err := LoadSocialWeaver(c, g); err != nil {
			c.Close()
			return res, err
		}
		before := c.Stats()
		mix := workload.ReadMix(0.5) // write-heavy: stresses ordering
		clients := make([]*weaver.Client, o.Clients)
		rngs := make([]*rand.Rand, o.Clients)
		for i := range clients {
			clients[i] = c.Client()
			rngs[i] = rand.New(rand.NewSource(o.Seed + int64(i)))
		}
		qps, _, _ := bench.Throughput(o.Clients, o.Duration, func(ci, _ int) error {
			return weaverTAOOp(clients[ci], g, mix, rngs[ci])
		})
		after := c.Stats()
		c.Close()
		ops := qps * o.Duration.Seconds()
		if ops < 1 {
			ops = 1
		}
		res.Rows = append(res.Rows, Fig14Row{
			Tau:            tau,
			AnnouncesPerOp: float64(after.TotalAnnounces()-before.TotalAnnounces()) / ops,
			OraclePerOp:    float64(after.TotalOracleMessages()-before.TotalOracleMessages()) / ops,
		})
	}
	return res, nil
}
