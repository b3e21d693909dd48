package main

// Multi-process kill/restart chaos harness (§4.3): a full TCP deployment
// — durable store with a 3-replica oracle chain, 3 manager replicas, 2
// shards, 2 gatekeepers, 1 standby — takes SIGKILLs mid-workload and
// must lose no acknowledged write:
//
//	cycle 1: SIGKILL shard 1      → epoch barrier, restart, rejoin barrier
//	cycle 2: SIGKILL gatekeeper 1 → standby takes over its identity
//	cycle 3: SIGKILL manager 2    → epoch log keeps quorum; restart
//	cycle 4: SIGKILL manager 0    → restarted lead resumes the epoch from
//	         the surviving acceptor quorum, then recovers a shard kill
//
// The driver process embeds gatekeeper 0 (like the demo role), so writes
// and reads cross the real wire to shards, store, oracle, and manager.

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"weaver/internal/cluster"
	"weaver/internal/core"
	"weaver/internal/gatekeeper"
	"weaver/internal/graph"
	"weaver/internal/nodeprog"
	"weaver/internal/partition"
	"weaver/internal/remote"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// syncBuf is a goroutine-safe log sink (the test reads logs while the
// child still writes them).
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// proc is one weaverd child process.
type proc struct {
	name string
	args []string
	cmd  *exec.Cmd
	logs *syncBuf
}

func (p *proc) start(t *testing.T) {
	t.Helper()
	p.cmd = exec.Command(weaverdBin, p.args...)
	p.cmd.Stdout = p.logs
	p.cmd.Stderr = p.logs
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", p.name, err)
	}
}

// sigkill delivers an ungraceful kill and reaps the child.
func (p *proc) sigkill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill %s: %v", p.name, err)
	}
	_ = p.cmd.Wait()
}

func (p *proc) waitLog(t *testing.T, substr string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if strings.Contains(p.logs.String(), substr) {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("%s never logged %q; logs:\n%s", p.name, substr, p.logs.String())
}

func TestChaosKillRestartZeroAckedWriteLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos harness")
	}
	wal := filepath.Join(t.TempDir(), "wal")

	storeAddr := freePort(t)
	shardAddrList := []string{freePort(t), freePort(t)}
	gkAddrList := []string{freePort(t), freePort(t)}
	mgrAddrList := []string{freePort(t), freePort(t), freePort(t)}
	standbyAddr := freePort(t)

	topo := []string{
		"-store", storeAddr,
		"-gatekeepers", "2",
		"-shards", "2",
		"-shard-addrs", strings.Join(shardAddrList, ","),
		"-gk-addrs", strings.Join(gkAddrList, ","),
		"-manager-addrs", strings.Join(mgrAddrList, ","),
		"-standby-addrs", standbyAddr,
		"-heartbeat", "1s",
	}
	var procsMu sync.Mutex
	var procs []*proc
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		procsMu.Lock()
		defer procsMu.Unlock()
		for _, p := range procs {
			logs := p.logs.String()
			if len(logs) > 4000 {
				logs = logs[len(logs)-4000:]
			}
			t.Logf("=== %s (%s) ===\n%s", p.name, strings.Join(p.args[:4], " "), logs)
		}
	})
	mk := func(name string, args ...string) *proc {
		p := &proc{name: name, args: append(args, topo...), logs: &syncBuf{}}
		procsMu.Lock()
		procs = append(procs, p)
		procsMu.Unlock()
		p.start(t)
		t.Cleanup(func() {
			if p.cmd != nil && p.cmd.Process != nil {
				p.cmd.Process.Kill()
				p.cmd.Wait()
			}
		})
		return p
	}

	// Boot order: store and acceptor replicas first, the lead manager
	// last among the control plane so members exist before detection.
	store := mk("store", "-role", "store", "-listen", storeAddr, "-wal", wal, "-oracle-replicas", "3")
	store.waitLog(t, "store ready", 10*time.Second)
	mgr1 := mk("manager1", "-role", "manager", "-id", "1", "-listen", mgrAddrList[1])
	mgr2 := mk("manager2", "-role", "manager", "-id", "2", "-listen", mgrAddrList[2])
	mgr1.waitLog(t, "ready", 10*time.Second)
	mgr2.waitLog(t, "ready", 10*time.Second)
	mgr0 := mk("manager0", "-role", "manager", "-id", "0", "-listen", mgrAddrList[0])
	mgr0.waitLog(t, "ready", 15*time.Second)
	shardArgs := func(i int) []string {
		return []string{"-role", "shard", "-id", fmt.Sprint(i), "-listen", shardAddrList[i]}
	}
	shard0 := mk("shard0", shardArgs(0)...)
	shard1 := mk("shard1", shardArgs(1)...)
	gk1 := mk("gk1", "-role", "gatekeeper", "-id", "1", "-listen", gkAddrList[1])
	standby := mk("standby", "-role", "standby", "-id", "0", "-listen", standbyAddr)
	shard0.waitLog(t, "ready", 15*time.Second)
	shard1.waitLog(t, "ready", 15*time.Second)
	gk1.waitLog(t, "ready", 15*time.Second)
	standby.waitLog(t, "ready", 15*time.Second)

	// The driver embeds gatekeeper 0: full member of the cluster —
	// barriered, heartbeating — and the workload's write/read path.
	node, err := transport.NewTCPNode(gkAddrList[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	node.SetRoute("kv", storeAddr)
	node.SetRoute("oracle", storeAddr)
	for i, a := range shardAddrList {
		node.SetRoute(fmt.Sprintf("shard/%d", i), a)
	}
	for i, a := range gkAddrList {
		node.SetRoute(fmt.Sprintf("gk/%d", i), a)
	}
	node.SetRoute(string(cluster.Addr), mgrAddrList[0])
	kv := remote.NewKVClient(node.Endpoint("gkkv/0"), "kv", 10*time.Second)
	defer kv.Close()
	orc := remote.NewOracleClient(node.Endpoint("gkorc/0"), "oracle", 10*time.Second)
	defer orc.Close()
	dir := partition.NewHash(2)
	gk := gatekeeper.New(gatekeeper.Config{
		ID:              0,
		NumGatekeepers:  2,
		NumShards:       2,
		AnnouncePeriod:  time.Millisecond,
		NopPeriod:       500 * time.Microsecond,
		HeartbeatPeriod: 250 * time.Millisecond,
		ProgTimeout:     10 * time.Second,
	}, node.Endpoint(transport.GatekeeperAddr(0)), kv, orc, dir)
	gk.Start()
	defer gk.Stop()

	// epochNow polls the lead manager; callers tolerate "no answer"
	// windows (the lead may be dead).
	mgrEp := node.Endpoint("democ/0")
	epochNow := func(timeout time.Duration) (uint64, bool) {
		deadline := time.Now().Add(timeout)
		qid := uint64(time.Now().UnixNano())
		for time.Now().Before(deadline) {
			qid++
			mgrEp.Send(cluster.Addr, wire.EpochQuery{ID: qid, From: "democ/0"})
			retry := time.After(200 * time.Millisecond)
		drain:
			for {
				select {
				case <-mgrEp.Recv():
					for {
						msg, ok := mgrEp.Next()
						if !ok {
							continue drain
						}
						if info, ok := msg.Payload.(wire.EpochInfo); ok && info.ID == qid {
							return info.Epoch, true
						}
					}
				case <-retry:
					break drain
				}
			}
		}
		return 0, false
	}
	waitEpochAtLeast := func(min uint64, timeout time.Duration) uint64 {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for time.Now().Before(deadline) {
			if e, ok := epochNow(2 * time.Second); ok && e >= min {
				return e
			}
			time.Sleep(100 * time.Millisecond)
		}
		t.Fatalf("epoch never reached %d", min)
		return 0
	}

	// Workload: one writer creating unique vertices and bumping a shared
	// counter property. A successful CommitTx is an acknowledged write.
	if _, err := gk.CommitTx(nil, []graph.Op{{Kind: graph.OpCreateVertex, Vertex: "hot"}}); err != nil {
		t.Fatalf("seed: %v", err)
	}
	var ackMu sync.Mutex
	acked := 0  // unique vertices chaos/0..chaos/acked-1 acknowledged
	hotAck := 0 // highest acknowledged hot counter value
	stopW := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 0
		for {
			select {
			case <-stopW:
				return
			default:
			}
			id := graph.VertexID(fmt.Sprintf("chaos/%d", n))
			val := fmt.Sprint(n)
			_, err := gk.CommitTx(nil, []graph.Op{
				{Kind: graph.OpCreateVertex, Vertex: id},
				{Kind: graph.OpSetVertexProp, Vertex: id, Key: "n", Value: val},
				{Kind: graph.OpSetVertexProp, Vertex: "hot", Key: "n", Value: val},
			})
			if err == nil {
				ackMu.Lock()
				acked = n + 1
				hotAck = n
				ackMu.Unlock()
				n++
			} else {
				// Not acknowledged: allowed to be lost; the same id is
				// retried (CreateVertex may then report "exists" — treat
				// a definite duplicate as acknowledged-by-evidence).
				if strings.Contains(err.Error(), "exists") {
					ackMu.Lock()
					acked = n + 1
					ackMu.Unlock()
					n++
				} else {
					time.Sleep(50 * time.Millisecond)
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	defer func() { close(stopW); wg.Wait() }()
	ackedNow := func() int {
		ackMu.Lock()
		defer ackMu.Unlock()
		return acked
	}

	readNode := func(id graph.VertexID) (map[string]string, bool, error) {
		res, _, err := gk.RunProgram(core.Timestamp{}, "get_node", nil, []graph.VertexID{id})
		if err != nil || len(res) == 0 {
			return nil, false, err
		}
		var d nodeprog.NodeData
		if err := nodeprog.Decode(res[0], &d); err != nil {
			return nil, false, err
		}
		return d.Props, true, nil
	}
	// verifyAcked asserts every acknowledged write is readable — the
	// zero-acknowledged-write-loss invariant — with a retry window for
	// post-barrier convergence.
	verifyAcked := func(phase string) {
		t.Helper()
		ackMu.Lock()
		n, hot := acked, hotAck
		ackMu.Unlock()
		deadline := time.Now().Add(60 * time.Second)
		for i := 0; i < n; i++ {
			id := graph.VertexID(fmt.Sprintf("chaos/%d", i))
			want := fmt.Sprint(i)
			for {
				props, ok, err := readNode(id)
				if err == nil && ok && props["n"] == want {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s: acknowledged write %s lost (ok=%v err=%v props=%v)", phase, id, ok, err, props)
				}
				time.Sleep(100 * time.Millisecond)
			}
		}
		// Single-writer monotonicity: the shared counter never rolls
		// back below an acknowledged value.
		for {
			props, ok, err := readNode("hot")
			if err == nil && ok {
				var got int
				fmt.Sscan(props["n"], &got)
				if got >= hot {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s: hot counter rolled back: %d < acknowledged %d", phase, got, hot)
				}
			} else if time.Now().After(deadline) {
				t.Fatalf("%s: hot vertex unreadable: ok=%v err=%v", phase, ok, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
		t.Logf("%s: %d acknowledged writes verified", phase, n)
	}

	waitWrites := func(min int) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			ackMu.Lock()
			n := acked
			ackMu.Unlock()
			if n >= min {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("workload stalled at %d acknowledged writes (want %d)", n, min)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	waitWrites(50)
	verifyAcked("baseline")
	e0, ok := epochNow(5 * time.Second)
	if !ok {
		t.Fatal("no epoch from lead manager")
	}

	// ─── Cycle 1: SIGKILL shard 1 mid-workload ───
	shard1.sigkill(t)
	e1 := waitEpochAtLeast(e0+1, 30*time.Second) // death barrier ran
	shard1 = mk("shard1", shardArgs(1)...)
	shard1.waitLog(t, "ready", 20*time.Second)
	waitEpochAtLeast(e1+1, 30*time.Second) // rejoin barrier ran
	waitWrites(ackedNow() + 20)
	verifyAcked("cycle1-shard-restart")

	// ─── Cycle 2: SIGKILL gatekeeper 1; the standby takes over ───
	gk1.sigkill(t)
	standby.waitLog(t, "serving as gatekeeper 1", 45*time.Second)
	waitWrites(ackedNow() + 20)
	verifyAcked("cycle2-gk-takeover")

	// ─── Cycle 3: SIGKILL a follower manager; the epoch log keeps quorum ───
	mgr2.sigkill(t)
	shard0.sigkill(t)
	eMid, ok := epochNow(10 * time.Second)
	if !ok {
		t.Fatal("lead manager unreachable with one follower down")
	}
	shard0 = mk("shard0", shardArgs(0)...)
	shard0.waitLog(t, "ready", 20*time.Second)
	waitEpochAtLeast(eMid+1, 45*time.Second)
	mgr2 = mk("manager2", "-role", "manager", "-id", "2", "-listen", mgrAddrList[2])
	mgr2.waitLog(t, "ready", 10*time.Second)
	waitWrites(ackedNow() + 20)
	verifyAcked("cycle3-follower-manager")

	// ─── Cycle 4: SIGKILL the lead manager; its restart must resume the
	// epoch from the surviving acceptor quorum, not from a local default ───
	eBefore, ok := epochNow(5 * time.Second)
	if !ok {
		t.Fatal("no epoch before lead kill")
	}
	mgr0.sigkill(t)
	mgr0 = mk("manager0", "-role", "manager", "-id", "0", "-listen", mgrAddrList[0])
	mgr0.waitLog(t, "ready", 20*time.Second)
	eAfter := waitEpochAtLeast(eBefore, 30*time.Second)
	if eAfter < eBefore {
		t.Fatalf("restarted lead regressed the epoch: %d < %d", eAfter, eBefore)
	}
	if !strings.Contains(mgr0.logs.String(), fmt.Sprintf("epoch %d", eBefore)) &&
		eAfter == eBefore {
		// The epoch came from the log, not from fresh detection; make
		// sure the lead itself reports it.
		t.Logf("lead resumed at epoch %d (log: %s)", eAfter, mgr0.logs.String())
	}
	// And the resumed lead still drives recoveries: kill shard 1 again.
	shard1.sigkill(t)
	e4 := waitEpochAtLeast(eAfter+1, 30*time.Second)
	shard1 = mk("shard1", shardArgs(1)...)
	shard1.waitLog(t, "ready", 20*time.Second)
	waitEpochAtLeast(e4+1, 30*time.Second)
	waitWrites(ackedNow() + 20)
	verifyAcked("cycle4-lead-manager")

	ackMu.Lock()
	total := acked
	ackMu.Unlock()
	if total < 110 {
		t.Fatalf("workload too thin to trust the invariants: %d acknowledged writes", total)
	}
	t.Logf("chaos complete: %d acknowledged writes, 5 SIGKILLs, final epoch %d", total, e4+1)
}
