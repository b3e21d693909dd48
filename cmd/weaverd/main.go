// Command weaverd runs one Weaver server in a multi-process TCP
// deployment. Roles:
//
//	store      — the backing store and timeline oracle services
//	gatekeeper — one timestamping/transaction server (-id N)
//	shard      — one graph partition server (-id N)
//	manager    — one cluster-manager replica (-id N): every replica
//	             hosts a Paxos acceptor for the epoch log; replica 0
//	             additionally leads (failure detection + epoch barriers)
//	standby    — watches the manager's epoch log; when a gatekeeper is
//	             declared failed, takes over its identity and address
//	demo       — a client driving a smoke workload through gatekeeper 0
//
// Every process takes the same topology and settings flags so the routing
// tables and the servers agree:
//
//	weaverd -role store      -listen :7000
//	weaverd -role shard      -id 0 -listen :7101 -store localhost:7000 -gatekeepers 1 -shards 2 -shard-addrs localhost:7101,localhost:7102
//	weaverd -role shard      -id 1 -listen :7102 -store localhost:7000 -gatekeepers 1 -shards 2 -shard-addrs localhost:7101,localhost:7102
//	weaverd -role gatekeeper -id 0 -listen :7201 -store localhost:7000 -gatekeepers 1 -shards 2 -shard-addrs localhost:7101,localhost:7102 -gk-addrs localhost:7201
//	weaverd -role demo       -listen :7201     ...same topology flags...
//
// The settings flags bind into the deploy.Spec weaver.Config converts to,
// and each role is built by the internal/deploy constructors weaver.Open
// uses — here on a TCP node with remote store clients. -gc and -retention
// are Config.GCPeriod and Config.HistoryRetention: without -gc nothing is
// ever collected and the oracle's DAG is never pruned. MaxShardVertices
// and ProgTimeout have no flag: they are embedded-only.
//
// Fault-tolerant deployments add `-manager-addrs` (3 entries; index 0
// leads) and `-heartbeat` to every process: members heartbeat the lead,
// the lead commits epoch bumps to the replicated log and drives the
// barrier over the wire, and a restarted lead resumes the epoch from the
// surviving acceptor quorum — never from a local default.
//
// The demo role is the zero-to-one smoke test for a fresh deployment: it
// acts as gatekeeper 0 itself (run it in place of the gatekeeper process,
// listening on gatekeeper 0's address), commits a small graph, and runs a
// traversal through the full TCP stack.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"weaver/internal/cluster"
	"weaver/internal/core"
	"weaver/internal/deploy"
	"weaver/internal/gatekeeper"
	"weaver/internal/graph"
	"weaver/internal/index"
	"weaver/internal/nodeprog"
	"weaver/internal/obs"
	"weaver/internal/partition"
	"weaver/internal/paxos"
	"weaver/internal/plan"
	"weaver/internal/remote"
	"weaver/internal/shard"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// process is what the roles of one weaverd process share.
type process struct {
	spec        deploy.Spec
	topo        topology
	id          int
	node        *transport.TCPNode
	metrics     *obs.Registry
	metricsSrv  *http.Server
	stopTimeout time.Duration
}

func main() {
	var p process
	listFlag := func(dst *[]string, name, usage string) {
		flag.Func(name, usage, func(v string) error { *dst = splitList(v); return nil })
	}
	role := flag.String("role", "", "store | gatekeeper | shard | manager | standby | demo")
	flag.IntVar(&p.id, "id", 0, "server index within its role")
	listen := flag.String("listen", ":0", "listen address")
	flag.StringVar(&p.topo.store, "store", "localhost:7000", "store node host:port")
	listFlag(&p.topo.shards, "shard-addrs", "comma-separated shard node host:port list")
	listFlag(&p.topo.gatekeepers, "gk-addrs", "comma-separated gatekeeper node host:port list")
	listFlag(&p.topo.managers, "manager-addrs", "comma-separated manager replica host:port list (index 0 leads; 3 for fault tolerance)")
	listFlag(&p.topo.standbys, "standby-addrs", "comma-separated standby node host:port list")
	flag.IntVar(&p.spec.Gatekeepers, "gatekeepers", 1, "gatekeeper count")
	flag.IntVar(&p.spec.Shards, "shards", 1, "shard count")
	flag.DurationVar(&p.spec.HeartbeatTimeout, "heartbeat", 0, "failure-detection heartbeat timeout (0 = no failure detection); members beat at a quarter of it")
	flag.DurationVar(&p.spec.AnnouncePeriod, "tau", time.Millisecond, "vector clock announce period τ")
	flag.DurationVar(&p.spec.NopPeriod, "nop", 500*time.Microsecond, "NOP period")
	flag.DurationVar(&p.spec.GCPeriod, "gc", 0, "version and oracle garbage-collection period (0 = keep everything forever; give the SAME value to every gatekeeper)")
	flag.DurationVar(&p.spec.HistoryRetention, "retention", 0, "keep superseded versions readable this long before -gc may collect them")
	flag.StringVar(&p.spec.WALPath, "wal", "", "WAL path for a durable store (role=store)")
	flag.IntVar(&p.spec.OracleReplicas, "oracle-replicas", 1, "chain replication factor for the oracle (role=store)")
	flag.Func("index", "comma-separated vertex property keys to index (give the SAME list to every shard and gatekeeper; role=demo also smokes a Lookup)", func(v string) error {
		for _, k := range splitList(v) {
			p.spec.Indexes = append(p.spec.Indexes, index.Spec{Key: k})
		}
		return nil
	})
	metricsAddr := flag.String("metrics-addr", "", "serve the live metrics surface on this host:port (/metrics Prometheus text, /debug/traces slow-op JSON, /debug/pprof)")
	traceSample := flag.Int("trace-sample", 0, "trace one in N transactions end-to-end (0 = default 64; 1 = every transaction)")
	flag.DurationVar(&p.stopTimeout, "shutdown-timeout", 10*time.Second, "max time for graceful shutdown before exiting nonzero")
	flag.Parse()
	if len(p.topo.managers) == 0 {
		p.spec.HeartbeatTimeout = 0 // nobody to beat to
	}

	p.metrics = obs.New(obs.Config{TraceSample: *traceSample})
	var err error
	if p.node, err = transport.NewTCPNode(*listen, nil); err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer p.node.Close()
	p.node.Instrument(transport.NewWireMetrics(p.metrics))
	p.topo.route(p.node)
	log.Printf("weaverd role=%s id=%d listening on %s", *role, p.id, p.node.ListenAddr())

	if *metricsAddr != "" {
		p.metricsSrv = &http.Server{Addr: *metricsAddr, Handler: obs.Handler(p.metrics)}
		go func() {
			log.Printf("metrics on http://%s/metrics", *metricsAddr)
			if err := p.metricsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatalf("metrics server: %v", err)
			}
		}()
	}

	roles := map[string]func(){
		"store": p.runStore, "shard": p.runShard, "gatekeeper": p.runGatekeeper,
		"manager": p.runManager, "standby": p.runStandby, "demo": p.runDemo,
	}
	run, ok := roles[*role]
	if !ok {
		fmt.Fprintln(os.Stderr, "weaverd: -role must be store, gatekeeper, shard, manager, standby, or demo")
		os.Exit(2)
	}
	run()
}

// topology is where each server of the deployment listens.
type topology struct {
	store                                   string
	shards, gatekeepers, managers, standbys []string
}

// route installs the deployment's routing table on n: the store node hosts
// kv+oracle; shard, gatekeeper and manager nodes are enumerated; the
// per-server client reply addresses route to their server's node. A standby
// reapplies the identical table to the node it binds at takeover.
func (t topology) route(n *transport.TCPNode) {
	n.SetRoute("kv", t.store)
	n.SetRoute("oracle", t.store)
	for i, a := range t.shards {
		n.SetRoute(fmt.Sprintf("shard/%d", i), a)
		n.SetRoute(fmt.Sprintf("shorc/%d", i), a)
		n.SetRoute(fmt.Sprintf("shkv/%d", i), a)
	}
	for i, a := range t.gatekeepers {
		n.SetRoute(fmt.Sprintf("gk/%d", i), a)
		n.SetRoute(fmt.Sprintf("gkkv/%d", i), a)
		n.SetRoute(fmt.Sprintf("gkorc/%d", i), a)
		n.SetRoute(fmt.Sprintf("democ/%d", i), a)
	}
	for i, a := range t.managers {
		n.SetRoute(fmt.Sprintf("pxa/%d", i), a)
		// The lead replica hosts the manager endpoint and the Paxos
		// client reply endpoints.
		n.SetRoute(fmt.Sprintf("pxc/%d", i), t.managers[0])
		n.SetRoute(string(cluster.Addr), t.managers[0])
	}
	for i, a := range t.standbys {
		n.SetRoute(fmt.Sprintf("standby/%d", i), a)
	}
}

// storeClients opens server idx's clients to the store node's kv and oracle
// services on n (role is the reply-address prefix, "sh" or "gk"); the
// returned func closes them.
func storeClients(n *transport.TCPNode, role string, idx int) (*remote.KVClient, *remote.OracleClient, func()) {
	kv := remote.NewKVClient(n.Endpoint(transport.Addr(fmt.Sprintf("%skv/%d", role, idx))), "kv", 10*time.Second)
	orc := remote.NewOracleClient(n.Endpoint(transport.Addr(fmt.Sprintf("%sorc/%d", role, idx))), "oracle", 10*time.Second)
	return kv, orc, func() { orc.Close(); kv.Close() }
}

func (p *process) runStore() {
	st, orc, err := p.spec.NewStore(p.metrics)
	if err != nil {
		log.Fatalf("open store: %v", err)
	}
	kvSrv := remote.NewKVServer(p.node.Endpoint("kv"), st)
	kvSrv.Start()
	orcSrv := remote.NewOracleServer(p.node.Endpoint("oracle"), orc)
	orcSrv.Start()
	log.Printf("store ready (wal=%q oracle-replicas=%d)", p.spec.WALPath, p.spec.OracleReplicas)
	p.serve(func() {
		orcSrv.Stop()
		kvSrv.Stop()
	})
}

func (p *process) runShard() {
	kv, orc, closeClients := storeClients(p.node, "sh", p.id)
	defer closeClients()
	ep := p.node.Endpoint(transport.ShardAddr(p.id))
	epoch := p.bootEpoch(ep)
	sh := p.spec.NewShard(p.id, epoch, ep, kv, orc, nodeprog.NewRegistry(), partition.NewHash(p.spec.Shards), p.metrics)
	n, err := recoverAtBoot(sh)
	if err != nil {
		log.Fatalf("shard %d: the store at %s never answered the boot scan: %v", p.id, p.topo.store, err)
	}
	sh.Start()
	log.Printf("shard %d ready (%d vertices recovered, epoch %d)", p.id, n, epoch)
	p.serve(sh.Stop)
}

// startGatekeeper builds and starts gatekeeper idx on n for the gatekeeper,
// standby and demo roles, joining at the epoch the lead manager reports.
// The caller stops it; the returned func closes its store clients.
func (p *process) startGatekeeper(n *transport.TCPNode, idx int, o *obs.Registry) (*gatekeeper.Gatekeeper, func()) {
	kv, orc, closeClients := storeClients(n, "gk", idx)
	ep := n.Endpoint(transport.GatekeeperAddr(idx))
	epoch := p.bootEpoch(ep)
	gk := p.spec.NewGatekeeper(idx, epoch, ep, kv, orc, partition.NewHash(p.spec.Shards), o)
	gk.Start()
	log.Printf("gatekeeper %d ready (τ=%v nop=%v gc=%v epoch=%d)", idx, p.spec.AnnouncePeriod, p.spec.NopPeriod, p.spec.GCPeriod, epoch)
	return gk, closeClients
}

func (p *process) runGatekeeper() {
	gk, closeClients := p.startGatekeeper(p.node, p.id, p.metrics)
	defer closeClients()
	p.serve(gk.Stop)
}

func (p *process) runManager() {
	mgrs := p.topo.managers
	if p.id < 0 || p.id >= len(mgrs) {
		log.Fatalf("manager role requires -manager-addrs with an entry for -id %d", p.id)
	}
	// Every replica hosts one acceptor of the epoch log.
	acc := paxos.NewAcceptor()
	accSrv := remote.NewAcceptorServer(p.node.Endpoint(transport.Addr(fmt.Sprintf("pxa/%d", p.id))), acc)
	accSrv.Start()
	if p.id != 0 {
		log.Printf("manager %d ready (acceptor replica)", p.id)
		p.serve(accSrv.Stop)
		return
	}
	// The lead replica detects failures and drives epoch barriers. Its own
	// acceptor is reached in-process; the others over TCP. On restart,
	// cluster.New resumes the epoch from whatever the surviving quorum
	// decided. Members are other processes: no restart callback.
	accs := []paxos.AcceptorAPI{acc}
	for i := 1; i < len(mgrs); i++ {
		accs = append(accs, remote.NewAcceptorClient(
			p.node.Endpoint(transport.Addr(fmt.Sprintf("pxc/%d", i))),
			transport.Addr(fmt.Sprintf("pxa/%d", i)), time.Second))
	}
	mgr := p.spec.NewManager(p.id, 0, p.node.Endpoint(cluster.Addr), accs, nil, nil)
	mgr.WatchEpochs(func(epoch uint64, failed transport.Addr) {
		log.Printf("epoch %d entered (reconfigured around %s)", epoch, failed)
	})
	mgr.Start()
	log.Printf("manager %d ready (leading: epoch %d, heartbeat timeout %v, %d acceptors)",
		p.id, mgr.Epoch(), p.spec.HeartbeatTimeout, len(accs))
	p.serve(func() {
		mgr.Stop()
		accSrv.Stop()
	})
}

// runStandby watches the lead manager's epoch state; when a gatekeeper is
// declared failed, it adopts its identity: binds its advertised address
// and serves as that gatekeeper in the current epoch. The first heartbeat
// under the adopted name triggers the manager's rejoin barrier, which
// realigns every FIFO stream.
func (p *process) runStandby() {
	if len(p.topo.managers) == 0 || len(p.topo.gatekeepers) == 0 {
		log.Fatalf("standby role requires -manager-addrs and -gk-addrs")
	}
	self := transport.Addr(fmt.Sprintf("standby/%d", p.id))
	ctx, stopWatch := context.WithCancel(context.Background())
	var mu sync.Mutex
	var adopted *gatekeeper.Gatekeeper
	var adoptedNode *transport.TCPNode
	go func() {
		var gkIdx int
		info, ok := pollEpoch(ctx, p.node.Endpoint(self), self, false, func(info wire.EpochInfo) bool {
			for _, f := range info.Failed {
				if _, err := fmt.Sscanf(string(f), "gk/%d", &gkIdx); err == nil && gkIdx >= 0 && gkIdx < len(p.topo.gatekeepers) {
					return true
				}
			}
			return false
		})
		if !ok {
			return
		}
		log.Printf("standby %d: gatekeeper %d failed at epoch %d, taking over", p.id, gkIdx, info.Epoch)
		gnode, err := bindRetry(p.topo.gatekeepers[gkIdx], 15*time.Second)
		if err != nil {
			log.Fatalf("standby: bind %s: %v", p.topo.gatekeepers[gkIdx], err)
		}
		p.topo.route(gnode)
		// The adopted gatekeeper's clients live until the process exits.
		gk, _ := p.startGatekeeper(gnode, gkIdx, p.metrics)
		mu.Lock()
		adopted, adoptedNode = gk, gnode
		mu.Unlock()
		log.Printf("standby %d: serving as gatekeeper %d", p.id, gkIdx)
	}()
	log.Printf("standby %d ready (watching %d gatekeepers)", p.id, len(p.topo.gatekeepers))
	p.serve(func() {
		stopWatch()
		mu.Lock()
		defer mu.Unlock()
		if adopted != nil {
			adopted.Stop()
			adoptedNode.Close()
		}
	})
}

// recoverAtBoot loads the shard's partition from the store, retrying while
// the store does not answer: processes of one deployment start in any
// order, and a shard must never serve an empty partition because it came
// up first. Gives up once the store has stayed silent for the whole window.
func recoverAtBoot(sh *shard.Shard) (n int, err error) {
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(500 * time.Millisecond) {
		if n, err = sh.Recover(); err == nil || time.Now().After(deadline) {
			return n, err
		}
		log.Printf("boot scan failed, retrying: %v", err)
	}
}

// pollEpoch sends the lead manager an EpochQuery from ep every 250 ms and
// returns the first reply accept takes, or false once ctx is done. Other
// traffic arriving this early is discarded: the server is not serving yet,
// and the rejoin barrier resets every stream once it heartbeats anyway.
//
// boot marks the queries as a member (re)start: if the manager has seen
// the address alive before, the process died and came back — maybe inside
// the failure detector's window — and the manager runs a rejoin barrier.
// Reply and barrier share one FIFO connection, so the EpochInfo lands
// first and the barrier waits in the mailbox until the server serves.
func pollEpoch(ctx context.Context, ep transport.Endpoint, self transport.Addr, boot bool, accept func(wire.EpochInfo) bool) (wire.EpochInfo, bool) {
	first := uint64(time.Now().UnixNano())
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for qid := first + 1; ; qid++ {
		ep.Send(cluster.Addr, wire.EpochQuery{ID: qid, From: self, Boot: boot})
		for waiting := true; waiting; {
			select {
			case <-ctx.Done():
				return wire.EpochInfo{}, false
			case <-tick.C:
				waiting = false
			case <-ep.Recv():
				for msg, ok := ep.Next(); ok; msg, ok = ep.Next() {
					if info, ok := msg.Payload.(wire.EpochInfo); ok && info.ID > first && accept(info) {
						return info, true
					}
				}
			}
		}
	}
}

// bootEpoch asks the lead manager which epoch the cluster is in, so a
// restarted server never stamps or ingests under a stale epoch. Returns 0
// (fresh cluster) when no manager is configured or none answers in time.
func (p *process) bootEpoch(ep transport.Endpoint) uint64 {
	if len(p.topo.managers) == 0 {
		return 0
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	info, ok := pollEpoch(ctx, ep, ep.Addr(), true, func(wire.EpochInfo) bool { return true })
	if !ok {
		log.Printf("no epoch reply from manager %s; starting at epoch 0", p.topo.managers[0])
	}
	return info.Epoch
}

// bindRetry listens on addr, retrying while the OS releases the dead
// process's port.
func bindRetry(addr string, timeout time.Duration) (n *transport.TCPNode, err error) {
	for deadline := time.Now().Add(timeout); ; time.Sleep(250 * time.Millisecond) {
		if n, err = transport.NewTCPNode(addr, nil); err == nil || time.Now().After(deadline) {
			return n, err
		}
	}
}

func splitList(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' })
}

// serve blocks until SIGINT or SIGTERM, then shuts the server down
// gracefully in dependency order: stop accepting new work (the listener
// and the metrics endpoint), then run the role-specific stop (which drains
// in-flight work). If the whole sequence does not finish within
// -shutdown-timeout, the process exits nonzero — a hung drain must not
// look like a clean exit to a supervisor.
func (p *process) serve(stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	sig := <-ch
	log.Printf("received %v, shutting down", sig)
	done := make(chan struct{})
	go func() {
		if p.metricsSrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), p.stopTimeout)
			_ = p.metricsSrv.Shutdown(ctx)
			cancel()
		}
		p.node.Close()
		stop()
		close(done)
	}()
	select {
	case <-done:
		log.Println("shutdown complete")
	case <-time.After(p.stopTimeout):
		log.Println("shutdown timed out")
		os.Exit(1)
	}
}

// runDemo IS gatekeeper `id` (default 0): run it in place of that
// gatekeeper, on that gatekeeper's listen address, so shard-side routing
// reaches it. With a manager configured it is a tracked member like any
// other: it joins at the cluster's epoch and keeps heartbeating, or the
// detector would declare it dead mid-demo.
func (p *process) runDemo() {
	p.spec.ProgTimeout = 15 * time.Second
	gk, closeClients := p.startGatekeeper(p.node, p.id, nil)
	defer closeClients()
	defer gk.Stop()
	ops := []graph.Op{
		{Kind: graph.OpCreateVertex, Vertex: "demo/a"},
		{Kind: graph.OpCreateVertex, Vertex: "demo/b"},
		{Kind: graph.OpCreateVertex, Vertex: "demo/c"},
		{Kind: graph.OpCreateEdge, Vertex: "demo/a", Edge: "~0", To: "demo/b"},
		{Kind: graph.OpCreateEdge, Vertex: "demo/b", Edge: "~1", To: "demo/c"},
		{Kind: graph.OpSetVertexProp, Vertex: "demo/a", Key: "kind", Value: "demo"},
		{Kind: graph.OpSetVertexProp, Vertex: "demo/b", Key: "kind", Value: "demo"},
		{Kind: graph.OpSetVertexProp, Vertex: "demo/c", Key: "kind", Value: "demo"},
	}
	res, err := gk.CommitTx(nil, ops)
	if err != nil {
		log.Fatalf("demo commit: %v", err)
	}
	log.Printf("demo committed at %v", res.TS)
	params := nodeprog.Encode(nodeprog.TraverseParams{})
	out, _, err := gk.RunProgram(core.Timestamp{}, "traverse", params, []graph.VertexID{"demo/a"})
	if err != nil {
		log.Fatalf("demo traversal: %v", err)
	}
	visited := make([]string, 0, len(out))
	for _, r := range out {
		var v graph.VertexID
		if err := nodeprog.Decode(r, &v); err == nil {
			visited = append(visited, string(v))
		}
	}
	log.Printf("demo traversal visited %d vertices: %v", len(visited), visited)
	if len(visited) != 3 {
		log.Fatal("demo FAILED")
	}
	if len(p.spec.Indexes) > 0 {
		// Scatter-gather secondary-index lookup through the TCP stack
		// (shards must run with the same -index list), planned from the
		// presence markers the commit above published — not broadcast.
		var ex plan.Explanation
		ids, _, err := gk.Lookup(core.Timestamp{}, gatekeeper.LookupOptions{Wheres: wire.Eq("kind", "demo"), Explain: &ex})
		if err != nil {
			log.Fatalf("demo index lookup: %v", err)
		}
		log.Printf("demo index lookup kind=demo: %v (shards %v, broadcast=%v %s)", ids, ex.Shards, ex.Broadcast, ex.FallbackReason)
		if len(ids) != 3 || ex.Broadcast {
			log.Fatal("demo FAILED (index lookup)")
		}
	}
	log.Println("demo OK ✓")
}
