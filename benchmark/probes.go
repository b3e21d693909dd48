package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"weaver/internal/core"
	"weaver/internal/graph"
	"weaver/internal/index"
	"weaver/internal/kvstore"
	"weaver/internal/nodeprog"
	"weaver/internal/obs"
	"weaver/internal/oracle"
	"weaver/internal/plan"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// Layer probes: each leaf layer is measured from outside, by timing calls
// into its public functions on one goroutine, on inputs replayed from the
// workload's own generated op log. A probe reports the median over
// probeBatches timed batches ("busy time per op": what the layer costs
// when nothing makes it wait) and records one span per batch.

const probeBatches = 9

// tracer collects the benchmark's own spans in memory; they are written
// out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(parent int, layer, name string) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Layer: layer, Name: name,
		Start: float64(time.Since(t.t0)) / 1e3,
	})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = float64(time.Since(t.t0)) / 1e3 }

// probeTx is one replayed write transaction in the forms the layers
// consume it: the shard-side op list and the backing-store key it rewrites.
type probeTx struct {
	ts  core.Timestamp
	ops []graph.Op
	key string
}

type prober struct {
	g       *socialGraph
	n       int
	reads   []uint32 // subject vertices of the replayed ops
	txs     []probeTx
	cityTxs []probeTx // the subset that writes the indexed property
	recs    []*graph.VertexRecord
	loadTS  core.Timestamp
	clock   [numGatekeepers]*core.VectorClock
	scratch string
	tr      *tracer
	root    int
	out     map[string]metric
}

func (p *prober) set(name string, v float64, unit string) { p.out[name] = metric{Value: v, Unit: unit} }

// measure times call(i) for i in [0,n) in batches and returns the median
// nanoseconds per call.
func (p *prober) measure(layer, fn string, n int, call func(i int)) float64 {
	parent := p.tr.begin(p.root, layer, fn)
	batch := max(n/probeBatches, 1)
	var per []float64
	for lo := 0; lo+batch <= n; lo += batch {
		id := p.tr.begin(parent, layer, fn+" batch")
		t0 := time.Now()
		for i := lo; i < lo+batch; i++ {
			call(i)
		}
		d := time.Since(t0)
		p.tr.end(id)
		per = append(per, float64(d)/float64(batch))
	}
	p.tr.end(parent)
	return median(per)
}

// tick mints the next timestamp at gatekeeper gk; every 16th tick the two
// clocks exchange announces, so the pool mixes ordered and concurrent
// pairs the way a live cluster does.
func (p *prober) tick(gk, i int) core.Timestamp {
	ts := p.clock[gk].Tick()
	if i%16 == 15 {
		p.clock[1-gk].Observe(ts)
	}
	return ts
}

// newProber builds the replay inputs: the first n ops of each client's
// log, their write transactions as graph ops (topped up from the
// write_durable mix when the workload itself writes too little to time),
// and the social graph as vertex records.
func newProber(spec *workloadSpec, g *socialGraph, seed int64, n int, scratch string, tr *tracer) *prober {
	p := &prober{g: g, n: n, scratch: scratch, tr: tr, out: map[string]metric{}}
	for gk := range p.clock {
		p.clock[gk] = core.NewVectorClock(gk, numGatekeepers, 0)
	}
	p.loadTS = p.clock[0].Tick()
	p.clock[1].Observe(p.loadTS)

	p.recs = make([]*graph.VertexRecord, len(g.ids))
	prefix := graph.EdgeIDPrefix(p.loadTS.ID())
	edge := 0
	for v, id := range g.ids {
		rec := &graph.VertexRecord{
			ID: id, Shard: v % numShards, LastTS: p.loadTS,
			Props: map[string]string{"city": cityName(g.city[v])},
			Edges: make(map[graph.EdgeID]graph.EdgeRecord, len(g.adj[v])),
		}
		for _, to := range g.adj[v] {
			rec.Edges[graph.EdgeID(fmt.Sprintf("%s%d", prefix, edge))] = graph.EdgeRecord{To: g.ids[to]}
			edge++
		}
		p.recs[v] = rec
	}

	top, _ := findWorkload("write_durable")
	for _, s := range []*workloadSpec{spec, top} {
		logs := oplog(s, len(g.ids), seed, n)
		ledgers := make([][]edgeRef, len(logs))
		for i := 0; i < n; i++ {
			for client, log := range logs {
				o := log[i]
				if s == spec {
					p.reads = append(p.reads, o.v)
				}
				if o.class.isWrite() && len(p.txs) < n {
					p.addTx(client, i, o, &ledgers[client])
				}
			}
		}
	}
	return p
}

// addTx renders one write op as the transaction the layers see, keeping
// the per-client ledger delete_edge draws from (as the executor does).
func (p *prober) addTx(client, i int, o op, ledger *[]edgeRef) {
	g := p.g
	ts := p.tick(client, i)
	tx := probeTx{ts: ts, key: "v/" + string(g.ids[o.v])}
	switch o.class {
	case opCreateEdge:
		eid := graph.MakeEdgeID(ts.ID(), 0)
		*ledger = append(*ledger, edgeRef{from: o.v, id: eid})
		tx.ops = []graph.Op{{Kind: graph.OpCreateEdge, Vertex: g.ids[o.v], Edge: eid, To: g.ids[o.to]}}
	case opDeleteEdge:
		l := *ledger
		j := int(o.pick) % len(l)
		e := l[j]
		l[j] = l[len(l)-1]
		*ledger = l[:len(l)-1]
		tx.key = "v/" + string(g.ids[e.from])
		tx.ops = []graph.Op{{Kind: graph.OpDeleteEdge, Vertex: g.ids[e.from], Edge: e.id}}
	case opSetCity:
		tx.ops = []graph.Op{{Kind: graph.OpSetVertexProp, Vertex: g.ids[o.v], Key: "city", Value: cityName(o.val)}}
		p.cityTxs = append(p.cityTxs, tx)
	}
	p.txs = append(p.txs, tx)
}

func (p *prober) run() error {
	p.root = p.tr.begin(0, "benchmark", "layer probes")
	defer func() { p.tr.end(p.root) }()
	p.probeCore()
	p.probeWire()
	p.probeFabric()
	p.probeOracle()
	p.probeGraphIndexPlanProg()
	p.probeKV()
	if err := p.probeDurableKV(); err != nil {
		return err
	}
	return p.probeTCP()
}

func (p *prober) probeCore() {
	pool := make([]core.Timestamp, 1024)
	for i := range pool {
		pool[i] = p.tick(i%numGatekeepers, i)
	}
	var sink core.Order
	ns := p.measure("core", "Timestamp.Compare", p.n, func(i int) {
		sink += pool[i%len(pool)].Compare(pool[(i*7+3)%len(pool)])
	})
	_ = sink
	p.set("core.compare_ns", ns, "ns")
}

// probeWire frames the two messages that dominate the wire: a forwarded
// write-set per replayed transaction, and a hop batch per replayed read
// (the subject vertex's out-neighbours, as a traversal would scatter them).
func (p *prober) probeWire() {
	params := nodeprog.Encode(nodeprog.TraverseParams{MaxDepth: traverseDepth, Depth: 1})
	frames := []struct {
		name string
		msg  func(i int) any
	}{
		{"tx_forward", func(i int) any {
			tx := p.txs[i%len(p.txs)]
			return wire.TxForward{TS: tx.ts, Seq: uint64(i), Ops: tx.ops}
		}},
		{"prog_hops", func(i int) any {
			v := p.reads[i%len(p.reads)]
			m := wire.ProgHops{QID: p.loadTS.ID(), TS: p.loadTS, ReadTS: p.loadTS, Coordinator: transport.GatekeeperAddr(0)}
			for k, to := range p.g.adj[v] {
				m.Hops = append(m.Hops, wire.Hop{ID: uint64(k), Vertex: p.g.ids[to], Program: "traverse", Params: params, Origin: 0})
			}
			return m
		}},
	}
	from, to := transport.GatekeeperAddr(0), transport.ShardAddr(1)
	for _, f := range frames {
		name := f.name
		msgs := make([]any, min(p.n, 4096))
		for i := range msgs {
			msgs[i] = f.msg(i)
		}
		encoded := make([][]byte, len(msgs))
		var buf []byte
		enc := p.measure("wire", "transport.AppendFrame "+name, p.n, func(i int) {
			buf, _ = transport.AppendFrame(buf[:0], from, to, msgs[i%len(msgs)])
		})
		total := 0
		for i, m := range msgs {
			encoded[i], _ = transport.AppendFrame(nil, from, to, m)
			total += len(encoded[i])
		}
		dec := p.measure("wire", "transport.DecodeFrame "+name, p.n, func(i int) {
			transport.DecodeFrame(encoded[i%len(encoded)])
		})
		p.set("wire.encode_ns."+name, enc, "ns")
		p.set("wire.decode_ns."+name, dec, "ns")
		p.set("wire.bytes_per_frame."+name, float64(total)/float64(len(msgs)), "B")
	}
}

// pingPong bounces msg between two endpoints on two goroutines and returns
// the median round trip in nanoseconds.
func (p *prober) pingPong(layer, fn string, a, b transport.Endpoint, msg any) float64 {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-b.Recv():
				for m, ok := b.Next(); ok; m, ok = b.Next() {
					b.Send(a.Addr(), m.Payload)
				}
			}
		}
	}()
	rtt := p.measure(layer, fn, min(p.n, 5000), func(int) {
		a.Send(b.Addr(), msg)
		for {
			<-a.Recv()
			if _, ok := a.Next(); ok {
				return
			}
		}
	})
	close(done)
	wg.Wait()
	return rtt
}

func (p *prober) probeFabric() {
	f := transport.NewFabric()
	a, b := f.Endpoint("probe/a"), f.Endpoint("probe/b")
	defer a.Close()
	defer b.Close()
	rtt := p.pingPong("transport", "Fabric send->recv", a, b, wire.Nop{TS: p.loadTS, Seq: 1})
	p.set("transport.fabric_handoff_us", rtt/2/1e3, "us")
}

// probeTCP is the one probe that needs something outside the process: a
// loopback socket. Where the sandbox has none the metric is left out and
// the run says so; it is not in BENCHMARK.json's per-layer list for that
// reason.
func (p *prober) probeTCP() error {
	na, err := transport.NewTCPNode("127.0.0.1:0", nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: no loopback TCP, transport.tcp_rtt_us skipped: %v\n", err)
		return nil
	}
	defer na.Close()
	nb, err := transport.NewTCPNode("127.0.0.1:0", map[string]string{"probe": na.ListenAddr()})
	if err != nil {
		return fmt.Errorf("tcp probe: %w", err)
	}
	defer nb.Close()
	na.SetRoute("peer", nb.ListenAddr())
	a, b := na.Endpoint("probe/a"), nb.Endpoint("peer/b")
	defer a.Close()
	defer b.Close()
	rtt := p.pingPong("transport", "TCPNode loopback rtt", a, b, wire.Nop{TS: p.loadTS, Seq: 1})
	p.set("transport.tcp_rtt_us", rtt/1e3, "us")
	return nil
}

// probeOracle times the timeline oracle on DAGs of 1k and 10k pairwise
// concurrent events (clock <i, k-i> is an antichain), the shape a burst of
// unordered cross-gatekeeper transactions leaves behind.
func (p *prober) probeOracle() {
	for _, size := range []struct {
		k    int
		name string
	}{{1000, "1k"}, {10000, "10k"}} {
		d := oracle.NewDAG()
		evs := make([]oracle.Event, size.k)
		for i := range evs {
			ts := core.Timestamp{Owner: i % numGatekeepers, Clock: []uint64{uint64(i + 1), uint64(size.k - i)}}
			evs[i] = oracle.EventOf(ts)
			d.CreateEvent(evs[i])
		}
		calls := min(p.n, size.k/10) // sparse: the DAG keeps the shape of a burst, not of a backlog
		// Distinct pseudo-random pairs, low index first, so no assignment
		// can close a cycle and every call does the full reachability check.
		pair := func(i int) (int, int) {
			x := uint64(i+1) * 0x9E3779B97F4A7C15
			a, b := int(x>>33)%size.k, int((x*0xBF58476D1CE4E5B9)>>33)%size.k
			if a == b {
				b = (b + 1) % size.k
			}
			return min(a, b), max(a, b)
		}
		assign := p.measure("oracle", "DAG.AssignOrder "+size.name, calls, func(i int) {
			a, b := pair(i)
			d.AssignOrder(evs[a], evs[b])
		})
		query := p.measure("oracle", "DAG.QueryOrder "+size.name, calls, func(i int) {
			a, b := pair(i + calls)
			d.QueryOrder(evs[a], evs[b], core.Before)
		})
		p.set("oracle.assign_us."+size.name, assign/1e3, "us")
		p.set("oracle.query_us."+size.name, query/1e3, "us")
	}
}

type allMarkers struct{}

func (allMarkers) HasValue(string, string, int) bool { return true }

// probeGraphIndexPlanProg replays the op log against one shard-side stack:
// the multi-version store, the secondary index, the planner and the
// traverse program, each called directly.
func (p *prober) probeGraphIndexPlanProg() {
	codec := p.measure("graph", "EncodeRecord+DecodeRecord", p.n, func(i int) {
		graph.DecodeRecord(graph.EncodeRecord(p.recs[p.reads[i%len(p.reads)]]))
	})
	p.set("graph.record_codec_us", codec/1e3, "us")

	st := graph.NewStore()
	st.LoadAll(p.recs)
	readTS := p.tick(0, 15)
	view := st.At(func(w core.Timestamp) bool { return w.Compare(readTS) == core.Before })
	// The degree sweep: the social graph's out-degree is 8 everywhere, so
	// the wider rows are synthesised hubs.
	viewUS := func(deg int, id func(i int) graph.VertexID) {
		ns := p.measure("graph", fmt.Sprintf("View.Vertex deg %d", deg), max(p.n*8/deg, probeBatches), func(i int) {
			view.Vertex(id(i))
		})
		p.set(fmt.Sprintf("graph.view_us.deg%d", deg), ns/1e3, "us")
	}
	viewUS(8, func(i int) graph.VertexID { return p.g.ids[p.reads[i%len(p.reads)]] })
	for _, deg := range []int{64, 512} {
		hub := graph.NewVertexRecord(graph.VertexID(fmt.Sprintf("hub/%d", deg)), 0)
		hub.LastTS = p.loadTS
		hub.Edges = make(map[graph.EdgeID]graph.EdgeRecord, deg)
		for k := 0; k < deg; k++ {
			hub.Edges[graph.EdgeID(fmt.Sprintf("hub%d/%d", deg, k))] = graph.EdgeRecord{To: p.g.ids[k]}
		}
		st.Load(hub)
		viewUS(deg, func(int) graph.VertexID { return hub.ID })
	}

	// nodeprog: one traverse visit on an already materialised view, and
	// the parameter codec every hop pays (still gob).
	visits := min(p.n, 4096)
	ctxs := make([]nodeprog.Context, visits)
	params := nodeprog.Encode(nodeprog.TraverseParams{MaxDepth: traverseDepth, Depth: 1})
	for i := range ctxs {
		id := p.g.ids[p.reads[i%len(p.reads)]]
		vv, _ := view.Vertex(id)
		ctxs[i] = nodeprog.Context{Query: readTS.ID(), TS: readTS, VertexID: id, Vertex: vv, Params: params}
	}
	visit := p.measure("nodeprog", "Traverse.Visit", p.n, func(i int) {
		nodeprog.Traverse{}.Visit(&ctxs[i%visits])
	})
	p.set("nodeprog.visit_us", visit/1e3, "us")
	pc := p.measure("nodeprog", "Encode+Decode params", p.n, func(i int) {
		var tp nodeprog.TraverseParams
		nodeprog.Decode(nodeprog.Encode(nodeprog.TraverseParams{MaxDepth: traverseDepth, Depth: i % 4}), &tp)
	})
	p.set("nodeprog.params_codec_us", pc/1e3, "us")

	apply := p.measure("graph", "Store.ApplyTx", len(p.txs), func(i int) {
		st.ApplyTx(p.txs[i].ops, p.txs[i].ts, nil)
	})
	p.set("graph.apply_us_per_op", apply/1e3, "us")
	wm := p.tick(0, 15)
	id := p.tr.begin(p.root, "graph", "Store.CollectBefore")
	t0 := time.Now()
	st.CollectBefore(wm)
	p.set("graph.collect_ms", float64(time.Since(t0))/1e6, "ms")
	p.tr.end(id)

	ix := index.New([]index.Spec{{Key: "city"}})
	for _, rec := range p.recs {
		ix.InsertRecord(rec)
	}
	iapply := p.measure("index", "Index.ApplyTx", len(p.cityTxs), func(i int) {
		ix.ApplyTx(p.cityTxs[i].ops, p.cityTxs[i].ts)
	})
	p.set("index.apply_us", iapply/1e3, "us")
	all := func(core.Timestamp) bool { return true }
	lookup := p.measure("index", "Index.Lookup", min(p.n, 10*cityValues), func(i int) {
		ix.Lookup("city", cityName(uint16(i%cityValues)), all)
	})
	p.set("index.lookup_us", lookup/1e3, "us")
	p.set("index.postings", float64(ix.NumPostings()), "count")

	pl := plan.New(numShards, allMarkers{})
	build := p.measure("plan", "Planner.Build", p.n, func(i int) {
		pl.Build(plan.Query{Wheres: []wire.Where{{Key: "city", Op: wire.OpEq, Value: cityName(uint16(i % cityValues))}}})
	})
	p.set("plan.build_us", build/1e3, "us")
}

// rewrite is the backing-store half of a commit: read the vertex record
// with its version, write it back, validate and commit.
func rewrite(s *kvstore.Store, key string) error {
	tx := s.Begin()
	val, _, _, err := tx.GetVersioned(key)
	if err == nil {
		err = tx.Put(key, val)
	}
	if err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func (p *prober) seedStore(s *kvstore.Store) {
	kvs := make([]kvstore.KV, len(p.recs))
	for i, rec := range p.recs {
		kvs[i] = kvstore.KV{Key: "v/" + string(rec.ID), Value: graph.EncodeRecord(rec)}
	}
	s.BulkPut(kvs)
}

func (p *prober) probeKV() {
	s := kvstore.New()
	defer s.Close()
	p.seedStore(s)
	us := p.measure("kvstore", "Begin/GetVersioned/Put/Commit", len(p.txs), func(i int) {
		rewrite(s, p.txs[i].key)
	}) / 1e3
	p.set("kvstore.commit_us", us, "us")
}

// probeDurableKV times the same commit with the WAL on, alone and with two
// committers sharing group commits, and counts what reached the device.
func (p *prober) probeDurableKV() error {
	dir, err := os.MkdirTemp(p.scratch, "kvprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := kvstore.NewDurable(filepath.Join(dir, "store"))
	if err != nil {
		return fmt.Errorf("durable kv probe: %w", err)
	}
	defer s.Close()
	reg := obs.New(obs.Config{})
	fsync := reg.LatencyHistogram("probe_wal_fsync_seconds")
	s.InstrumentWAL(fsync, reg.SizeHistogram("probe_wal_group_txns"))
	p.seedStore(s)

	commits := min(len(p.txs), p.n/20)
	one := p.measure("kvstore", "durable commit x1", commits, func(i int) {
		rewrite(s, p.txs[i].key)
	})
	p.set("kvstore.durable_commit_us.1", one/1e3, "us")

	syncs0, bytes0 := reg.Snapshot().Histograms["probe_wal_fsync_seconds"].Count, dirBytes(dir)
	id := p.tr.begin(p.root, "kvstore", "durable commit x2")
	t0 := time.Now()
	var wg sync.WaitGroup
	var committed atomic.Int64 // the two may conflict on a hot vertex; a lost commit logs nothing
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < commits; i += 2 {
				if rewrite(s, p.txs[i].key) == nil {
					committed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	p.tr.end(id)
	syncs := reg.Snapshot().Histograms["probe_wal_fsync_seconds"].Count - syncs0
	done := float64(max(committed.Load(), 1))
	p.set("kvstore.durable_commit_us.2", float64(elapsed)/1e3/done, "us")
	p.set("kvstore.syncs_per_commit", float64(syncs)/done, "ratio")
	p.set("kvstore.wal_bytes_per_commit", float64(dirBytes(dir)-bytes0)/done, "B")
	return nil
}

func dirBytes(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}
