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
// Every process takes the same topology flags so the routing tables agree:
//
//	weaverd -role store      -listen :7000
//	weaverd -role shard      -id 0 -listen :7101 -store localhost:7000 -gatekeepers 1 -shards 2 -shard-addrs localhost:7101,localhost:7102
//	weaverd -role shard      -id 1 -listen :7102 -store localhost:7000 -gatekeepers 1 -shards 2 -shard-addrs localhost:7101,localhost:7102
//	weaverd -role gatekeeper -id 0 -listen :7201 -store localhost:7000 -gatekeepers 1 -shards 2 -shard-addrs localhost:7101,localhost:7102 -gk-addrs localhost:7201
//	weaverd -role demo       -listen :7201     ...same topology flags...
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
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"weaver/internal/cluster"
	"weaver/internal/core"
	"weaver/internal/gatekeeper"
	"weaver/internal/graph"
	"weaver/internal/index"
	"weaver/internal/kvstore"
	"weaver/internal/nodeprog"
	"weaver/internal/obs"
	"weaver/internal/oracle"
	"weaver/internal/partition"
	"weaver/internal/paxos"
	"weaver/internal/plan"
	"weaver/internal/remote"
	"weaver/internal/shard"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

func main() {
	var (
		role       = flag.String("role", "", "store | gatekeeper | shard | manager | standby | demo")
		id         = flag.Int("id", 0, "server index within its role")
		listen     = flag.String("listen", ":0", "listen address")
		storeAddr  = flag.String("store", "localhost:7000", "store node host:port")
		gks        = flag.Int("gatekeepers", 1, "gatekeeper count")
		shards     = flag.Int("shards", 1, "shard count")
		shardAddrs = flag.String("shard-addrs", "", "comma-separated shard node host:port list")
		gkAddrs    = flag.String("gk-addrs", "", "comma-separated gatekeeper node host:port list")
		mgrAddrs   = flag.String("manager-addrs", "", "comma-separated manager replica host:port list (index 0 leads; 3 for fault tolerance)")
		sbAddrs    = flag.String("standby-addrs", "", "comma-separated standby node host:port list")
		hbTimeout  = flag.Duration("heartbeat", 0, "failure-detection heartbeat timeout (0 = no failure detection); members beat at a quarter of it")
		tau        = flag.Duration("tau", time.Millisecond, "vector clock announce period τ")
		nop        = flag.Duration("nop", 500*time.Microsecond, "NOP period")
		wal        = flag.String("wal", "", "WAL path for a durable store (role=store)")
		oracleReps = flag.Int("oracle-replicas", 1, "chain replication factor for the oracle (role=store)")
		workers    = flag.Int("workers", 0, "apply worker-pool size for conflict-aware parallel execution (role=shard; 0 or 1 = serial)")
		indexKeys  = flag.String("index", "", "comma-separated vertex property keys to index (give the SAME list to every shard and gatekeeper; role=demo also smokes a Lookup)")

		metricsAddr = flag.String("metrics-addr", "", "serve the live metrics surface on this host:port (/metrics Prometheus text, /debug/traces slow-op JSON, /debug/pprof)")
		traceSample = flag.Int("trace-sample", 0, "trace one in N transactions end-to-end (0 = default 64; 1 = every transaction)")
		stopTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "max time for graceful shutdown before exiting nonzero")
	)
	flag.Parse()

	metrics := obs.New(obs.Config{TraceSample: *traceSample})

	node, err := transport.NewTCPNode(*listen, nil)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer node.Close()
	node.Instrument(transport.NewWireMetrics(metrics))
	log.Printf("weaverd role=%s id=%d listening on %s", *role, *id, node.ListenAddr())

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		metricsSrv = &http.Server{Addr: *metricsAddr, Handler: obs.Handler(metrics)}
		go func() {
			log.Printf("metrics on http://%s/metrics", *metricsAddr)
			if err := metricsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatalf("metrics server: %v", err)
			}
		}()
	}

	// Routing: the store node hosts kv+oracle; shard/gatekeeper/manager
	// nodes are enumerated; client/server response addresses route by
	// prefix. Kept as a closure so a standby can reapply the identical
	// table to the node it binds at takeover.
	mgrList := splitList(*mgrAddrs)
	setRoutes := func(n *transport.TCPNode) {
		n.SetRoute("kv", *storeAddr)
		n.SetRoute("oracle", *storeAddr)
		for i, a := range splitList(*shardAddrs) {
			n.SetRoute(fmt.Sprintf("shard/%d", i), a)
			n.SetRoute(fmt.Sprintf("shorc/%d", i), a)
			n.SetRoute(fmt.Sprintf("shkv/%d", i), a)
		}
		for i, a := range splitList(*gkAddrs) {
			n.SetRoute(fmt.Sprintf("gk/%d", i), a)
			n.SetRoute(fmt.Sprintf("gkkv/%d", i), a)
			n.SetRoute(fmt.Sprintf("gkorc/%d", i), a)
			n.SetRoute(fmt.Sprintf("democ/%d", i), a)
		}
		for i, a := range mgrList {
			n.SetRoute(fmt.Sprintf("pxa/%d", i), a)
		}
		if len(mgrList) > 0 {
			// The lead replica hosts the manager endpoint and the Paxos
			// client reply endpoints.
			n.SetRoute(string(cluster.Addr), mgrList[0])
			for i := range mgrList {
				n.SetRoute(fmt.Sprintf("pxc/%d", i), mgrList[0])
			}
		}
		for i, a := range splitList(*sbAddrs) {
			n.SetRoute(fmt.Sprintf("standby/%d", i), a)
		}
	}
	setRoutes(node)

	// memberBeat is the liveness beat period for gatekeepers and shards
	// when failure detection is on.
	memberBeat := time.Duration(0)
	if len(mgrList) > 0 {
		memberBeat = cluster.BeatPeriod(*hbTimeout)
	}

	dir := partition.NewHash(*shards)
	reg := nodeprog.NewRegistry()

	// newGatekeeper assembles gatekeeper idx on n for the gatekeeper,
	// standby and demo roles: its KV and oracle clients (served by the
	// store node) and the server itself on ep, joining at epoch. The
	// caller starts and stops it; the returned func closes the clients.
	// o and progTimeout are the only settings the roles differ in.
	newGatekeeper := func(n *transport.TCPNode, idx int, ep transport.Endpoint, epoch uint64, o *obs.Registry, progTimeout time.Duration) (*gatekeeper.Gatekeeper, func()) {
		kv := remote.NewKVClient(n.Endpoint(transport.Addr(fmt.Sprintf("gkkv/%d", idx))), "kv", 10*time.Second)
		orc := remote.NewOracleClient(n.Endpoint(transport.Addr(fmt.Sprintf("gkorc/%d", idx))), "oracle", 10*time.Second)
		gk := gatekeeper.New(gatekeeper.Config{
			ID:              idx,
			NumGatekeepers:  *gks,
			NumShards:       *shards,
			Epoch:           epoch,
			AnnouncePeriod:  *tau,
			NopPeriod:       *nop,
			HeartbeatPeriod: memberBeat,
			ProgTimeout:     progTimeout,
			IndexedKeys:     splitList(*indexKeys),
			Obs:             o,
		}, ep, kv, orc, dir)
		return gk, func() { orc.Close(); kv.Close() }
	}

	switch *role {
	case "store":
		var st *kvstore.Store
		if *wal != "" {
			st, err = kvstore.NewDurable(*wal)
			if err != nil {
				log.Fatalf("open store: %v", err)
			}
			st.InstrumentWAL(
				metrics.LatencyHistogram("weaver_wal_fsync_seconds"),
				metrics.SizeHistogram("weaver_wal_group_commit_txns"),
			)
		} else {
			st = kvstore.New()
		}
		kvSrv := remote.NewKVServer(node.Endpoint("kv"), st)
		kvSrv.Start()
		var orc oracle.Client
		if *oracleReps > 1 {
			orc = oracle.NewReplicated(*oracleReps)
		} else {
			orc = oracle.NewService()
		}
		orcSrv := remote.NewOracleServer(node.Endpoint("oracle"), orc)
		orcSrv.Start()
		log.Printf("store ready (wal=%q oracle-replicas=%d)", *wal, *oracleReps)
		shutdownOnSignal(node, metricsSrv, *stopTimeout, func() {
			orcSrv.Stop()
			kvSrv.Stop()
		})

	case "shard":
		orc := remote.NewOracleClient(node.Endpoint(transport.Addr(fmt.Sprintf("shorc/%d", *id))), "oracle", 10*time.Second)
		defer orc.Close()
		kv := remote.NewKVClient(node.Endpoint(transport.Addr(fmt.Sprintf("shkv/%d", *id))), "kv", 10*time.Second)
		defer kv.Close()
		ep := node.Endpoint(transport.ShardAddr(*id))
		epoch := bootEpoch(ep, transport.ShardAddr(*id), mgrList, 5*time.Second)
		sh := shard.New(shard.Config{ID: *id, NumGatekeepers: *gks, Epoch: epoch, Workers: *workers,
			HeartbeatPeriod: memberBeat, Indexes: indexSpecs(*indexKeys), Obs: metrics},
			ep, orc, reg, dir)
		// The barrier's committed-but-unforwarded sweep needs a store
		// handle (a SIGKILLed gatekeeper may have committed write-sets it
		// never forwarded).
		sh.SetRecoverSource(kv)
		n, err := recoverAtBoot(sh, kv)
		if err != nil {
			log.Fatalf("shard %d: the store at %s never answered the boot scan: %v", *id, *storeAddr, err)
		}
		sh.Start()
		mode := "serial apply"
		if *workers > 1 {
			mode = fmt.Sprintf("%d apply workers", *workers)
		}
		log.Printf("shard %d ready (%d vertices recovered, %s, epoch %d)", *id, n, mode, epoch)
		shutdownOnSignal(node, metricsSrv, *stopTimeout, sh.Stop)

	case "gatekeeper":
		ep := node.Endpoint(transport.GatekeeperAddr(*id))
		epoch := bootEpoch(ep, transport.GatekeeperAddr(*id), mgrList, 5*time.Second)
		gk, closeClients := newGatekeeper(node, *id, ep, epoch, metrics, 0)
		defer closeClients()
		gk.Start()
		log.Printf("gatekeeper %d ready (τ=%v nop=%v epoch=%d)", *id, *tau, *nop, epoch)
		shutdownOnSignal(node, metricsSrv, *stopTimeout, gk.Stop)

	case "manager":
		if *id < 0 || *id >= len(mgrList) {
			log.Fatalf("manager role requires -manager-addrs with an entry for -id %d", *id)
		}
		// Every replica hosts one acceptor of the epoch log.
		acc := paxos.NewAcceptor()
		accSrv := remote.NewAcceptorServer(node.Endpoint(transport.Addr(fmt.Sprintf("pxa/%d", *id))), acc)
		accSrv.Start()
		var mgr *cluster.Manager
		if *id == 0 {
			// The lead replica detects failures and drives epoch
			// barriers. Its own acceptor is reached in-process; the
			// others over TCP. On restart, cluster.New resumes the epoch
			// from whatever the surviving quorum decided.
			accs := make([]paxos.AcceptorAPI, len(mgrList))
			for i := range mgrList {
				if i == *id {
					accs[i] = acc
				} else {
					accs[i] = remote.NewAcceptorClient(
						node.Endpoint(transport.Addr(fmt.Sprintf("pxc/%d", i))),
						transport.Addr(fmt.Sprintf("pxa/%d", i)), time.Second)
				}
			}
			hb := *hbTimeout
			if hb <= 0 {
				hb = 500 * time.Millisecond
			}
			mgr = cluster.New(cluster.Config{
				HeartbeatTimeout: hb,
				Acceptors:        accs,
				ProposerID:       *id,
				BarrierTimeout:   5 * time.Second,
			}, node.Endpoint(cluster.Addr))
			// Members are other processes: no restart callback.
			for i := 0; i < *gks; i++ {
				mgr.Register(transport.GatekeeperAddr(i), true, nil)
			}
			for i := 0; i < *shards; i++ {
				mgr.Register(transport.ShardAddr(i), false, nil)
			}
			mgr.WatchEpochs(func(epoch uint64, failed transport.Addr) {
				log.Printf("epoch %d entered (reconfigured around %s)", epoch, failed)
			})
			mgr.Start()
			log.Printf("manager %d ready (leading: epoch %d, heartbeat timeout %v, %d acceptors)",
				*id, mgr.Epoch(), hb, len(accs))
		} else {
			log.Printf("manager %d ready (acceptor replica)", *id)
		}
		shutdownOnSignal(node, metricsSrv, *stopTimeout, func() {
			if mgr != nil {
				mgr.Stop()
			}
			accSrv.Stop()
		})

	case "standby":
		// Watch the lead manager's epoch state; when a gatekeeper is
		// declared failed, adopt its identity: bind its advertised
		// address and serve as that gatekeeper in the current epoch. The
		// first heartbeat under the adopted name triggers the manager's
		// rejoin barrier, which realigns every FIFO stream.
		gkList := splitList(*gkAddrs)
		if len(mgrList) == 0 || len(gkList) == 0 {
			log.Fatalf("standby role requires -manager-addrs and -gk-addrs")
		}
		self := transport.Addr(fmt.Sprintf("standby/%d", *id))
		ep := node.Endpoint(self)
		stopWatch := make(chan struct{})
		var tkMu sync.Mutex
		var tkGK *gatekeeper.Gatekeeper
		var tkNode *transport.TCPNode
		go func() {
			gkIdx, epoch, ok := watchForFailedGK(ep, self, stopWatch)
			if !ok {
				return
			}
			log.Printf("standby %d: gatekeeper %d failed at epoch %d, taking over", *id, gkIdx, epoch)
			gnode, err := bindRetry(gkList[gkIdx], 15*time.Second)
			if err != nil {
				log.Fatalf("standby: bind %s: %v", gkList[gkIdx], err)
			}
			setRoutes(gnode)
			// The adopted gatekeeper's clients live until the process exits.
			gk, _ := newGatekeeper(gnode, gkIdx, gnode.Endpoint(transport.GatekeeperAddr(gkIdx)), epoch, metrics, 0)
			gk.Start()
			tkMu.Lock()
			tkGK, tkNode = gk, gnode
			tkMu.Unlock()
			log.Printf("standby %d: serving as gatekeeper %d", *id, gkIdx)
		}()
		log.Printf("standby %d ready (watching %d gatekeepers)", *id, len(gkList))
		shutdownOnSignal(node, metricsSrv, *stopTimeout, func() {
			close(stopWatch)
			tkMu.Lock()
			gk, gnode := tkGK, tkNode
			tkMu.Unlock()
			if gk != nil {
				gk.Stop()
			}
			if gnode != nil {
				gnode.Close()
			}
		})

	case "demo":
		// The demo process IS gatekeeper `id` (default 0): run it in
		// place of that gatekeeper, on that gatekeeper's listen address,
		// so shard-side routing reaches it. Clients embed the gatekeeper
		// API in-process, exactly like the weaver.Cluster library mode.
		// With a manager configured, the demo gatekeeper is a tracked
		// member like any other: join at the cluster's epoch and keep
		// heartbeating, or the detector declares it dead mid-demo and
		// barriers the shards away from it.
		ep := node.Endpoint(transport.GatekeeperAddr(*id))
		epoch := bootEpoch(ep, transport.GatekeeperAddr(*id), mgrList, 5*time.Second)
		gk, closeClients := newGatekeeper(node, *id, ep, epoch, nil, 15*time.Second)
		defer closeClients()
		gk.Start()
		defer gk.Stop()
		runDemo(gk, *indexKeys != "")

	default:
		fmt.Fprintln(os.Stderr, "weaverd: -role must be store, gatekeeper, shard, manager, standby, or demo")
		os.Exit(2)
	}
}

// recoverAtBoot loads the shard's partition from the store, retrying while
// the store does not answer: processes of one deployment start in any
// order, and a shard must never serve an empty partition because it came
// up first. Gives up once the store has stayed silent for the whole window.
func recoverAtBoot(sh *shard.Shard, kv kvstore.Backing) (n int, err error) {
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(500 * time.Millisecond) {
		if n, err = sh.Recover(kv); err == nil || time.Now().After(deadline) {
			return n, err
		}
		log.Printf("boot scan failed, retrying: %v", err)
	}
}

// bootEpoch asks the lead manager which epoch the cluster is in, so a
// restarted server never stamps or ingests under a stale epoch. Returns 0
// (fresh cluster) when no manager is configured or none answers within
// the timeout. Non-EpochInfo traffic arriving this early is discarded:
// the server is not serving yet, and the manager's rejoin barrier resets
// every stream the moment this process heartbeats anyway.
func bootEpoch(ep transport.Endpoint, self transport.Addr, mgrList []string, timeout time.Duration) uint64 {
	if len(mgrList) == 0 {
		return 0
	}
	qid := uint64(time.Now().UnixNano())
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		qid++
		// Boot marks this as a member (re)start: if the manager has seen
		// this address alive before, the process died and came back —
		// possibly faster than the failure detector's window — and the
		// manager runs a rejoin barrier to realign the FIFO streams.
		// The reply and any barrier message share one FIFO connection,
		// so the EpochInfo always lands first and the barrier waits in
		// the mailbox until the server starts serving.
		ep.Send(cluster.Addr, wire.EpochQuery{ID: qid, From: self, Boot: true})
		retry := time.After(300 * time.Millisecond)
		for {
			select {
			case <-ep.Recv():
				for {
					msg, ok := ep.Next()
					if !ok {
						break
					}
					if info, ok := msg.Payload.(wire.EpochInfo); ok && info.ID == qid {
						return info.Epoch
					}
				}
				continue
			case <-retry:
			}
			break
		}
	}
	log.Printf("no epoch reply from manager %s within %v; starting at epoch 0", mgrList[0], timeout)
	return 0
}

// watchForFailedGK polls the lead manager's EpochQuery service until a
// gatekeeper appears in the failed set, and returns its index and the
// epoch the failure was barriered into.
func watchForFailedGK(ep transport.Endpoint, self transport.Addr, stop chan struct{}) (gkIdx int, epoch uint64, ok bool) {
	qid := uint64(time.Now().UnixNano())
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return 0, 0, false
		case <-tick.C:
			qid++
			ep.Send(cluster.Addr, wire.EpochQuery{ID: qid, From: self})
		case <-ep.Recv():
			for {
				msg, mok := ep.Next()
				if !mok {
					break
				}
				info, iok := msg.Payload.(wire.EpochInfo)
				if !iok {
					continue
				}
				for _, f := range info.Failed {
					if i, pok := parseGKAddr(f); pok {
						return i, info.Epoch, true
					}
				}
			}
		}
	}
}

// parseGKAddr extracts the index from a gk/<i> address.
func parseGKAddr(a transport.Addr) (int, bool) {
	s := string(a)
	if !strings.HasPrefix(s, "gk/") {
		return 0, false
	}
	n, err := strconv.Atoi(s[len("gk/"):])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// bindRetry listens on addr, retrying while the OS releases the dead
// process's port.
func bindRetry(addr string, timeout time.Duration) (*transport.TCPNode, error) {
	deadline := time.Now().Add(timeout)
	for {
		n, err := transport.NewTCPNode(addr, nil)
		if err == nil {
			return n, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(250 * time.Millisecond)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// indexSpecs parses the -index flag into shard index specs.
func indexSpecs(keys string) []index.Spec {
	var specs []index.Spec
	for _, k := range splitList(keys) {
		specs = append(specs, index.Spec{Key: k})
	}
	return specs
}

// shutdownOnSignal blocks until SIGINT or SIGTERM, then shuts the server
// down gracefully in dependency order: stop accepting new work (the
// listener and the metrics endpoint), then run the role-specific stop
// (which drains in-flight work). If the whole sequence does not finish
// within timeout, the process exits nonzero — a hung drain must not look
// like a clean exit to a supervisor.
func shutdownOnSignal(node *transport.TCPNode, metricsSrv *http.Server, timeout time.Duration, stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	sig := <-ch
	log.Printf("received %v, shutting down", sig)
	done := make(chan struct{})
	go func() {
		if metricsSrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			_ = metricsSrv.Shutdown(ctx)
			cancel()
		}
		node.Close()
		stop()
		close(done)
	}()
	select {
	case <-done:
		log.Println("shutdown complete")
	case <-time.After(timeout):
		log.Println("shutdown timed out")
		os.Exit(1)
	}
}

func runDemo(gk *gatekeeper.Gatekeeper, withIndex bool) {
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
	if withIndex {
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
