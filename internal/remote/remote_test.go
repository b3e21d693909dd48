package remote

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"weaver/internal/core"
	"weaver/internal/gatekeeper"
	"weaver/internal/graph"
	"weaver/internal/kvstore"
	"weaver/internal/nodeprog"
	"weaver/internal/oracle"
	"weaver/internal/partition"
	"weaver/internal/paxos"
	"weaver/internal/shard"
	"weaver/internal/transport"
)

func TestKVRemoteRoundTrip(t *testing.T) {
	fabric := transport.NewFabric()
	store := kvstore.New()
	srv := NewKVServer(fabric.Endpoint("kv"), store)
	srv.Start()
	defer srv.Stop()

	cl := NewKVClient(fabric.Endpoint("kvc/0"), "kv", time.Second)
	defer cl.Close()

	tx := cl.Begin()
	if _, _, ok, err := tx.GetVersioned("a"); ok || err != nil {
		t.Fatalf("empty get: %v %v", ok, err)
	}
	if err := tx.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, ver, ok := cl.GetVersioned("a")
	if !ok || string(v) != "1" || ver == 0 {
		t.Fatalf("get after commit: %q %d %v", v, ver, ok)
	}

	// Conflicts map across the wire.
	tx1 := cl.Begin()
	tx1.GetVersioned("a")
	tx2 := cl.Begin()
	tx2.Put("a", []byte("2"))
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tx1.GetVersioned("a"); !errors.Is(err, kvstore.ErrConflict) {
		t.Fatalf("remote repeated read of a moved key must map to ErrConflict: %v", err)
	}
	tx1.Put("b", []byte("x"))
	if err := tx1.Commit(); !errors.Is(err, kvstore.ErrConflict) {
		t.Fatalf("remote conflict must map to ErrConflict: %v", err)
	}

	// Scan.
	keys := 0
	if err := cl.ScanPrefix("a", func(k string, v []byte) { keys++ }); err != nil || keys != 1 {
		t.Fatalf("scan found %d keys, err %v", keys, err)
	}
}

// A scan nobody answered is an error, never an empty result: a shard that
// boots before its store must not recover "zero vertices" and serve. Both
// ways a store can be absent — no route to it at all, and an address that
// accepts the request but never replies — surface through ScanPrefix and
// through Shard.Recover.
func TestScanWithoutStoreIsAnError(t *testing.T) {
	fabric := transport.NewFabric()
	fabric.Endpoint("kv/silent") // a mailbox nobody serves
	for _, tc := range []struct {
		store transport.Addr
		want  error
	}{
		{"kv/absent", transport.ErrUnknown},
		{"kv/silent", ErrTimeout},
	} {
		cl := NewKVClient(fabric.Endpoint("kvc/0"), tc.store, 20*time.Millisecond)
		err := cl.ScanPrefix(graph.VertexKeyPrefix, func(string, []byte) { t.Error("scan delivered a key from nowhere") })
		if !errors.Is(err, tc.want) {
			t.Errorf("ScanPrefix against %s: got %v, want %v", tc.store, err, tc.want)
		}
		sh := shard.New(shard.Config{ID: 0, NumGatekeepers: 1}, fabric.Endpoint(transport.ShardAddr(0)),
			cl, oracle.NewService(), nodeprog.NewRegistry(), partition.NewHash(1))
		if n, err := sh.Recover(); !errors.Is(err, tc.want) {
			t.Errorf("Recover against %s: recovered %d vertices with error %v, want %v", tc.store, n, err, tc.want)
		}
		cl.Close()
	}
}

func TestOracleRemoteRoundTrip(t *testing.T) {
	fabric := transport.NewFabric()
	srv := NewOracleServer(fabric.Endpoint("oracle"), oracle.NewService())
	srv.Start()
	defer srv.Stop()

	cl := NewOracleClient(fabric.Endpoint("oc/0"), "oracle", time.Second)
	defer cl.Close()

	mk := func(owner int, counter uint64) oracle.Event {
		clock := make([]uint64, 2)
		clock[owner] = counter
		return oracle.EventOf(core.Timestamp{Owner: owner, Clock: clock})
	}
	a, b := mk(0, 1), mk(1, 1)
	o, err := cl.QueryOrder(a, b, core.Before)
	if err != nil || o != core.Before {
		t.Fatalf("QueryOrder: %v %v", o, err)
	}
	if err := cl.AssignOrder(b, a); !errors.Is(err, oracle.ErrCycle) {
		t.Fatalf("cycle must map across the wire: %v", err)
	}
	if o, err := cl.Ordered(a, b); err != nil || o != core.Before {
		t.Fatalf("Ordered: %v %v", o, err)
	}
	if st := cl.Stats(); st.Queries == 0 {
		t.Fatal("remote stats empty")
	}
	if err := cl.GC(core.Timestamp{Epoch: 1, Clock: []uint64{1, 1}}); err != nil {
		t.Fatal(err)
	}
}

// TestTCPDeployment assembles a real multi-node Weaver over localhost TCP:
// a store node (backing store + timeline oracle), two shard nodes, and a
// gatekeeper node, then runs transactions and node programs end to end.
func TestTCPDeployment(t *testing.T) {
	newNode := func() *transport.TCPNode {
		n, err := transport.NewTCPNode("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		return n
	}
	storeNode, gkNode := newNode(), newNode()
	shardNodes := []*transport.TCPNode{newNode(), newNode()}

	// Wire the routing tables now that ports are known.
	all := []*transport.TCPNode{storeNode, gkNode, shardNodes[0], shardNodes[1]}
	for _, n := range all {
		n.SetRoute("kv", storeNode.ListenAddr())
		n.SetRoute("oracle", storeNode.ListenAddr())
		n.SetRoute("gk", gkNode.ListenAddr())
		n.SetRoute("gkkv", gkNode.ListenAddr())
		n.SetRoute("gkorc", gkNode.ListenAddr())
		for i, sn := range shardNodes {
			n.SetRoute(fmt.Sprintf("shard/%d", i), sn.ListenAddr())
			n.SetRoute(fmt.Sprintf("shorc/%d", i), sn.ListenAddr())
		}
	}

	// Store node: backing store + oracle services.
	kvSrv := NewKVServer(storeNode.Endpoint("kv"), kvstore.New())
	kvSrv.Start()
	t.Cleanup(kvSrv.Stop)
	orcSrv := NewOracleServer(storeNode.Endpoint("oracle"), oracle.NewService())
	orcSrv.Start()
	t.Cleanup(orcSrv.Stop)

	dir := partition.NewHash(2)
	reg := nodeprog.NewRegistry()

	// Shard nodes.
	for i, sn := range shardNodes {
		orc := NewOracleClient(sn.Endpoint(transport.Addr(fmt.Sprintf("shorc/%d", i))), "oracle", 5*time.Second)
		sh := shard.New(shard.Config{ID: i, NumGatekeepers: 1},
			sn.Endpoint(transport.ShardAddr(i)), nil, orc, reg, dir)
		sh.Start()
		t.Cleanup(sh.Stop)
	}

	// Gatekeeper node.
	kv := NewKVClient(gkNode.Endpoint("gkkv/0"), "kv", 5*time.Second)
	orc := NewOracleClient(gkNode.Endpoint("gkorc/0"), "oracle", 5*time.Second)
	gk := gatekeeper.New(gatekeeper.Config{
		ID: 0, NumGatekeepers: 1, NumShards: 2,
		AnnouncePeriod: time.Millisecond,
		NopPeriod:      time.Millisecond,
		ProgTimeout:    10 * time.Second,
	}, gkNode.Endpoint(transport.GatekeeperAddr(0)), kv, orc, dir)
	gk.Start()
	t.Cleanup(gk.Stop)

	// A transaction through the remote backing store.
	ops := []graph.Op{
		{Kind: graph.OpCreateVertex, Vertex: "a"},
		{Kind: graph.OpCreateVertex, Vertex: "b"},
		{Kind: graph.OpCreateVertex, Vertex: "c"},
		{Kind: graph.OpCreateEdge, Vertex: "a", Edge: "~0", To: "b"},
		{Kind: graph.OpCreateEdge, Vertex: "b", Edge: "~1", To: "c"},
		{Kind: graph.OpSetVertexProp, Vertex: "a", Key: "name", Value: "alpha"},
	}
	res, err := gk.CommitTx(nil, ops)
	if err != nil {
		t.Fatalf("commit over TCP: %v", err)
	}
	if len(res.Edges) != 2 {
		t.Fatalf("edge mapping: %v", res.Edges)
	}

	// Node program across both TCP shards.
	params := nodeprog.Encode(nodeprog.TraverseParams{})
	out, _, err := gk.RunProgram(core.Timestamp{}, "traverse", params, []graph.VertexID{"a"})
	if err != nil {
		t.Fatalf("program over TCP: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("BFS over TCP visited %d vertices, want 3", len(out))
	}

	// Semantic validation still enforced through the remote store.
	if _, err := gk.CommitTx(nil, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "a"}}); !errors.Is(err, gatekeeper.ErrInvalid) {
		t.Fatalf("duplicate create over TCP: %v", err)
	}
}

// TestServerStopTwiceConcurrently: a shutdown signal racing a deferred stop
// calls Stop from two goroutines at once; every server must close its stop
// channel exactly once and both calls must return. Run with -race.
func TestServerStopTwiceConcurrently(t *testing.T) {
	type server interface {
		Start()
		Stop()
	}
	for name, mk := range map[string]func(transport.Endpoint) server{
		"kv":       func(ep transport.Endpoint) server { return NewKVServer(ep, kvstore.New()) },
		"oracle":   func(ep transport.Endpoint) server { return NewOracleServer(ep, oracle.NewService()) },
		"acceptor": func(ep transport.Endpoint) server { return NewAcceptorServer(ep, paxos.NewAcceptor()) },
	} {
		t.Run(name, func(t *testing.T) {
			fabric := transport.NewFabric()
			for i := 0; i < 20; i++ {
				srv := mk(fabric.Endpoint(transport.Addr(fmt.Sprintf("%s/%d", name, i))))
				srv.Start()
				gate := make(chan struct{})
				var wg sync.WaitGroup
				for j := 0; j < 2; j++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-gate
						srv.Stop()
					}()
				}
				close(gate)
				wg.Wait()
			}
		})
	}
}
