package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"weaver/internal/gatekeeper"
	"weaver/internal/graph"
	"weaver/internal/kvstore"
	"weaver/internal/partition"
	"weaver/internal/remote"
	"weaver/internal/transport"
)

// The weaverd process tests build the real binary once and drive it over
// TCP: readiness via the metrics endpoint, shutdown via signals — the
// same lifecycle a supervisor exercises.

var weaverdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "weaverd-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	weaverdBin = filepath.Join(dir, "weaverd")
	if out, err := exec.Command("go", "build", "-o", weaverdBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build weaverd: %v\n%s", err, out)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// handedOut holds every address freePort returned in this process: the
// kernel may hand a released ephemeral port out again, and two children
// told the same address fail with "address already in use".
var handedOut = struct {
	sync.Mutex
	addrs map[string]bool
}{addrs: map[string]bool{}}

// freePort reserves an ephemeral port and releases it for the child
// process to bind, never the same one twice.
func freePort(t *testing.T) string {
	t.Helper()
	handedOut.Lock()
	defer handedOut.Unlock()
	for {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		l.Close()
		if !handedOut.addrs[addr] {
			handedOut.addrs[addr] = true
			return addr
		}
	}
}

// startStore launches a weaverd store role with a metrics endpoint and
// waits until /metrics answers.
func startStore(t *testing.T) (*exec.Cmd, string, *strings.Builder) {
	t.Helper()
	listen, metricsAddr := freePort(t), freePort(t)
	cmd := exec.Command(weaverdBin, "-role", "store", "-listen", listen, "-metrics-addr", metricsAddr)
	var logs strings.Builder
	cmd.Stdout = &logs
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + metricsAddr + "/metrics")
		if err == nil {
			resp.Body.Close()
			return cmd, metricsAddr, &logs
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("weaverd metrics endpoint never came up; logs:\n%s", logs.String())
	return nil, "", nil
}

// TestMetricsEndpoint scrapes the live surface of a running weaverd:
// Prometheus text on /metrics, JSON slow-op log on /debug/traces.
func TestMetricsEndpoint(t *testing.T) {
	_, metricsAddr, logs := startStore(t)

	resp, err := http.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v; logs:\n%s", err, logs.String())
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "# TYPE weaver_") {
		t.Fatalf("/metrics has no weaver_ families:\n%s", body)
	}
	if !strings.Contains(string(body), "weaver_wire_frames_total") {
		t.Fatalf("/metrics missing wire counters:\n%s", body)
	}

	resp, err = http.Get("http://" + metricsAddr + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/debug/traces content type %q", ct)
	}
	if s := strings.TrimSpace(string(body)); !strings.HasPrefix(s, "[") {
		t.Fatalf("/debug/traces not a JSON array: %s", s)
	}
}

// TestGracefulShutdown sends SIGINT to a running weaverd and expects a
// clean zero exit with the shutdown breadcrumbs logged — the regression
// test for the signal/drain/exit path.
func TestGracefulShutdown(t *testing.T) {
	cmd, _, logs := startStore(t)

	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("weaverd exited nonzero: %v; logs:\n%s", err, logs.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("weaverd did not exit after SIGINT; logs:\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "shutdown complete") {
		t.Fatalf("no shutdown breadcrumb; logs:\n%s", logs.String())
	}
}

// TestDemoPlansIndexLookup runs the demo role against a store and two
// shards, all given -index: the demo's gatekeeper must publish presence
// markers on commit and plan its equality lookup from them. The demo exits
// nonzero when the lookup fell back to broadcast (what happened while
// weaverd handed the -index keys to the shards only).
func TestDemoPlansIndexLookup(t *testing.T) {
	storeAddr, gkAddr := freePort(t), freePort(t)
	shardAddrs := []string{freePort(t), freePort(t)}
	topo := []string{"-store", storeAddr, "-gatekeepers", "1", "-shards", "2",
		"-shard-addrs", strings.Join(shardAddrs, ","), "-gk-addrs", gkAddr, "-index", "kind"}
	start := func(name string, args ...string) *proc {
		p := &proc{name: name, args: append(args, topo...), logs: &syncBuf{}}
		p.start(t)
		return p
	}
	servers := []*proc{
		start("store", "-role", "store", "-listen", storeAddr),
		start("shard0", "-role", "shard", "-id", "0", "-listen", shardAddrs[0]),
		start("shard1", "-role", "shard", "-id", "1", "-listen", shardAddrs[1]),
	}
	t.Cleanup(func() {
		for _, p := range servers {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	for _, p := range servers {
		p.waitLog(t, "ready", 10*time.Second)
	}
	demo := start("demo", "-role", "demo", "-id", "0", "-listen", gkAddr)
	done := make(chan error, 1)
	go func() { done <- demo.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		demo.cmd.Process.Kill()
		err = fmt.Errorf("demo timed out: %v", <-done)
	}
	if log := demo.logs.String(); err != nil || !strings.Contains(log, "broadcast=false") {
		t.Fatalf("demo: %v; log:\n%s", err, log)
	}
}

// TestGCFlagCollects: -gc is Config.GCPeriod on the command line. A store,
// a shard and gatekeeper 0 run as weaverd processes with -gc 50ms —
// gatekeeper 0 is the one that aggregates the watermark reports and prunes
// the oracle — while gatekeepers 1 and 2 are embedded in the test (the way
// the chaos harness embeds its client) and race a few hundred commits on
// one vertex, so their concurrent timestamps pile ordering events into the
// oracle. The store's /metrics must then show the oracle collecting. While
// weaverd had no such flag its gatekeepers never ran the GC loop: no report
// ever left gatekeeper 0, and nothing was ever collected.
func TestGCFlagCollects(t *testing.T) {
	storeAddr, metricsAddr, shardAddr := freePort(t), freePort(t), freePort(t)
	gkAddrs := []string{freePort(t), freePort(t), freePort(t)}
	const gc, tau, nop = 50 * time.Millisecond, 5 * time.Millisecond, 500 * time.Microsecond
	topo := []string{"-store", storeAddr, "-gatekeepers", "3", "-shards", "1", "-shard-addrs", shardAddr,
		"-gk-addrs", strings.Join(gkAddrs, ","), "-gc", gc.String(), "-tau", tau.String(), "-nop", nop.String()}
	var servers []*proc
	for _, args := range [][]string{
		{"-role", "store", "-listen", storeAddr, "-metrics-addr", metricsAddr},
		{"-role", "shard", "-id", "0", "-listen", shardAddr},
		{"-role", "gatekeeper", "-id", "0", "-listen", gkAddrs[0]},
	} {
		p := &proc{name: args[1], args: append(args, topo...), logs: &syncBuf{}}
		p.start(t)
		t.Cleanup(func() {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		})
		servers = append(servers, p)
	}
	for _, p := range servers {
		p.waitLog(t, "ready", 10*time.Second)
	}

	drivers := make([]*gatekeeper.Gatekeeper, 0, 2)
	for idx := 1; idx <= 2; idx++ {
		node, err := transport.NewTCPNode(gkAddrs[idx], nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		node.SetRoute("kv", storeAddr)
		node.SetRoute("oracle", storeAddr)
		node.SetRoute("shard/0", shardAddr)
		for i, a := range gkAddrs {
			node.SetRoute(fmt.Sprintf("gk/%d", i), a)
		}
		kv := remote.NewKVClient(node.Endpoint(transport.Addr(fmt.Sprintf("gkkv/%d", idx))), "kv", 10*time.Second)
		orc := remote.NewOracleClient(node.Endpoint(transport.Addr(fmt.Sprintf("gkorc/%d", idx))), "oracle", 10*time.Second)
		gk := gatekeeper.New(gatekeeper.Config{
			ID: idx, NumGatekeepers: 3, NumShards: 1,
			AnnouncePeriod: tau, NopPeriod: nop, GCPeriod: gc,
		}, node.Endpoint(transport.GatekeeperAddr(idx)), kv, orc, partition.NewHash(1))
		gk.Start()
		t.Cleanup(func() {
			gk.Stop()
			orc.Close()
			kv.Close()
		})
		drivers = append(drivers, gk)
	}

	if _, err := drivers[0].CommitTx(nil, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "hot"}}); err != nil {
		t.Fatalf("seed: %v", err)
	}
	var wg sync.WaitGroup
	committed := make([]int, len(drivers))
	for d, gk := range drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 150; n++ {
				// A lost OCC race is part of the workload, not a failure.
				if _, err := gk.CommitTx(nil, []graph.Op{{Kind: graph.OpSetVertexProp, Vertex: "hot", Key: "n", Value: fmt.Sprint(n)}}); err == nil {
					committed[d]++
				}
			}
		}()
	}
	wg.Wait()
	if committed[0] == 0 || committed[1] == 0 {
		t.Fatalf("workload did not commit through both drivers: %v", committed)
	}

	gauge := func(name string) (v int64, ok bool) {
		resp, err := http.Get("http://" + metricsAddr + "/metrics")
		if err != nil {
			return 0, false
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		for _, line := range strings.Split(string(body), "\n") {
			if rest, found := strings.CutPrefix(line, name+" "); found {
				_, err := fmt.Sscan(rest, &v)
				return v, err == nil
			}
		}
		return 0, false
	}
	if _, ok := gauge("weaver_oracle_events"); !ok {
		t.Fatalf("store /metrics does not export weaver_oracle_events")
	}
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		collected, _ := gauge("weaver_oracle_gc_collected")
		events, _ := gauge("weaver_oracle_events")
		if collected > 0 {
			t.Logf("%v commits; oracle collected %d events, %d live", committed, collected, events)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("oracle never collected with -gc %v: %d events live after %v commits; gatekeeper 0 log:\n%s",
				gc, events, committed, servers[2].logs.String())
		}
	}
}

// TestShardBootsAgainstReplayingStore starts a shard the moment the store
// process accepts connections, while the store is still replaying a WAL of
// 150k keys. The shard's boot scan reaches the store node before its kv
// server runs; the store's mailboxes, registered before the replay, hold
// it, and the shard is ready soon after the store. Registered after the
// replay instead, the node dropped the scan and the shard waited out the
// client's 10 s timeout.
func TestShardBootsAgainstReplayingStore(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "weaver.wal")
	st, err := kvstore.NewDurable(wal)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 15; b++ {
		tx := st.Begin()
		for i := 0; i < 10000; i++ {
			if err := tx.Put(fmt.Sprintf("pad/%d/%d", b, i), make([]byte, 16)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	storeAddr, shardAddr, gkAddr := freePort(t), freePort(t), freePort(t)
	topo := []string{"-store", storeAddr, "-gatekeepers", "1", "-shards", "1",
		"-shard-addrs", shardAddr, "-gk-addrs", gkAddr}
	start := func(args ...string) *proc {
		p := &proc{name: args[1], args: append(args, topo...), logs: &syncBuf{}}
		p.start(t)
		t.Cleanup(func() {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		})
		return p
	}
	store := start("-role", "store", "-listen", storeAddr, "-wal", wal)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if c, err := net.Dial("tcp", storeAddr); err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("store never listened; logs:\n%s", store.logs.String())
		}
	}
	shard := start("-role", "shard", "-id", "0", "-listen", shardAddr)
	shard.waitLog(t, "ready", 5*time.Second)
	store.waitLog(t, "ready", time.Second)
}
