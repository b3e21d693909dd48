// Strict-serializability stress suite: N concurrent clients run randomized
// read-modify-write transactions against a multi-gatekeeper, multi-shard
// cluster, and a checker validates the committed history against a
// sequential model.
//
// Workload model: M register vertices each hold an integer property "n".
// Every transaction reads one or two registers (recording the OCC read
// version) and writes back value+1. For this workload strict
// serializability is checkable:
//
//   - per register, the multiset of values read by committed increments
//     must be exactly {0, 1, ..., c-1} — each increment observed a unique
//     predecessor state, giving a total order per register;
//   - the union of those per-register total orders must be acyclic
//     (serializability: some single-threaded execution explains every
//     read);
//   - the data order must respect real time (strictness): a transaction
//     serialized before another must not have begun only after the other
//     completed;
//   - after an apply fence (Cluster.Quiesce), the shard-side multi-version
//     graph read through the full ordering machinery (node programs) must
//     agree with the sequential model's final state, as must the backing
//     store.
package weaver_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"weaver"
	"weaver/internal/workload"
)

type stressTx struct {
	id    int
	begin time.Time
	end   time.Time
	reads map[weaver.VertexID]int // value observed per incremented register
}

// chaosFn runs alongside the stress workload (background repartitioning,
// concurrent readers, ...) until stop closes; failures go to errCh. The
// workload waits for ready() before starting — chaos calls it once its
// disruption is demonstrably under way, so a starved goroutine on a loaded
// single-core runner cannot reduce the test to a chaos-free run. seed is
// the suite seed (workload.TestSeed): all chaos randomness must derive
// from it so a failure replays exactly.
type chaosFn func(c *weaver.Cluster, regs []weaver.VertexID, seed int64, ready func(), stop <-chan struct{}, errCh chan<- error)

func runStressAndVerify(t *testing.T, cfg weaver.Config, chaos chaosFn) {
	t.Helper()
	const (
		registers = 24
		clients   = 6
	)
	txPerClient := 100
	if testing.Short() {
		txPerClient = 30
	}
	// One suite seed drives every source of randomness below (per-client
	// generators, chaos goroutines); WEAVER_TEST_SEED replays a failure
	// exactly.
	seed := workload.TestSeed(t)

	c, err := weaver.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	reg := func(i int) weaver.VertexID { return weaver.VertexID(fmt.Sprintf("r%d", i)) }

	setup := c.Client()
	if _, err := setup.RunTx(func(tx *weaver.Tx) error {
		for i := 0; i < registers; i++ {
			tx.CreateVertex(reg(i))
			tx.SetProperty(reg(i), "n", "0")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var (
		mu      sync.Mutex
		history []stressTx
		nextID  int
	)
	chaosStop := make(chan struct{})
	chaosDone := make(chan struct{})
	chaosErr := make(chan error, 16)
	if chaos != nil {
		regs := make([]weaver.VertexID, registers)
		for i := range regs {
			regs[i] = reg(i)
		}
		var readyOnce sync.Once
		chaosReady := make(chan struct{})
		ready := func() { readyOnce.Do(func() { close(chaosReady) }) }
		go func() {
			defer close(chaosDone)
			chaos(c, regs, seed, ready, chaosStop, chaosErr)
		}()
		select {
		case <-chaosReady:
		case <-chaosDone: // chaos bailed before becoming ready; its error surfaces below
		}
	} else {
		close(chaosDone)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			client := c.Client()
			// Each goroutine derives its own generator from the suite
			// seed: sharing one rand.Rand across goroutines would make
			// interleavings (and thus replays) nondeterministic.
			r := rand.New(rand.NewSource(seed + int64(cl+1)))
			for op := 0; op < txPerClient; op++ {
				vs := []weaver.VertexID{reg(r.Intn(registers))}
				if r.Intn(2) == 0 {
					for {
						v := reg(r.Intn(registers))
						if v != vs[0] {
							vs = append(vs, v)
							break
						}
					}
				}
				begin := time.Now()
				var reads map[weaver.VertexID]int
				for attempt := 0; ; attempt++ {
					if attempt > 400 {
						errCh <- fmt.Errorf("client %d: tx starved after %d attempts", cl, attempt)
						return
					}
					tx := client.Begin()
					reads = make(map[weaver.VertexID]int, len(vs))
					for _, v := range vs {
						d, found, err := tx.GetVertex(v)
						if err != nil || !found {
							errCh <- fmt.Errorf("read %q: found=%v err=%v", v, found, err)
							return
						}
						n, err := strconv.Atoi(d.Props["n"])
						if err != nil {
							errCh <- fmt.Errorf("register %q holds %q: %v", v, d.Props["n"], err)
							return
						}
						reads[v] = n
					}
					for _, v := range vs {
						tx.SetProperty(v, "n", strconv.Itoa(reads[v]+1))
					}
					if _, err := tx.Commit(); err == nil {
						break
					} else if !errors.Is(err, weaver.ErrConflict) {
						errCh <- fmt.Errorf("commit: %v", err)
						return
					}
					time.Sleep(time.Duration(r.Intn(200)) * time.Microsecond)
				}
				end := time.Now()
				mu.Lock()
				history = append(history, stressTx{id: nextID, begin: begin, end: end, reads: reads})
				nextID++
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	close(chaosStop)
	<-chaosDone
	close(chaosErr)
	for err := range chaosErr {
		t.Fatal(err)
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// ---- Checker ----

	// Per-register total orders from the values each increment observed.
	type slot struct {
		tx   int
		read int
	}
	perReg := make(map[weaver.VertexID][]slot)
	for _, h := range history {
		for v, n := range h.reads {
			perReg[v] = append(perReg[v], slot{tx: h.id, read: n})
		}
	}
	increments := make(map[weaver.VertexID]int)
	succ := make(map[int][]int) // serialization edges tx -> tx
	for v, slots := range perReg {
		increments[v] = len(slots)
		seen := make(map[int]int, len(slots))
		for _, s := range slots {
			if prev, dup := seen[s.read]; dup {
				t.Fatalf("register %q: txs %d and %d both read value %d (lost update)", v, prev, s.tx, s.read)
			}
			seen[s.read] = s.tx
		}
		for n := 0; n < len(slots); n++ {
			if _, ok := seen[n]; !ok {
				t.Fatalf("register %q: no committed tx read value %d of %d (gap in increment chain)", v, n, len(slots))
			}
		}
		// Real-time check on every ordered pair of this register's chain:
		// if Ti is serialized before Tj, Tj must not have fully completed
		// before Ti began.
		for i := 0; i < len(slots); i++ {
			for j := 0; j < len(slots); j++ {
				if slots[i].read < slots[j].read {
					ti, tj := history[slots[i].tx], history[slots[j].tx]
					if tj.end.Before(ti.begin) {
						t.Fatalf("register %q: tx %d serialized before tx %d but began after it completed (real-time violation)",
							v, ti.id, tj.id)
					}
				}
			}
		}
		for n := 1; n < len(slots); n++ {
			succ[seen[n-1]] = append(succ[seen[n-1]], seen[n])
		}
	}

	// Serializability: the union of per-register orders must be acyclic.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[int]int, len(history))
	var dfs func(int) bool
	dfs = func(tx int) bool {
		color[tx] = grey
		for _, nxt := range succ[tx] {
			switch color[nxt] {
			case grey:
				return false
			case white:
				if !dfs(nxt) {
					return false
				}
			}
		}
		color[tx] = black
		return true
	}
	for _, h := range history {
		if color[h.id] == white && !dfs(h.id) {
			t.Fatalf("serialization graph has a cycle: committed history is not serializable")
		}
	}

	// Apply fence, then compare shard state (through the full node-program
	// ordering machinery) and the backing store against the model.
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	for _, st := range c.Stats().Gatekeepers {
		if st.ApplyPending != 0 {
			t.Fatalf("apply fence passed with pending applies: %+v", st)
		}
	}
	reader := c.Client()
	for i := 0; i < registers; i++ {
		want := strconv.Itoa(increments[reg(i)])
		node, ok, err := reader.GetNode(reg(i))
		if err != nil || !ok {
			t.Fatalf("get_node %q: ok=%v err=%v", reg(i), ok, err)
		}
		if node.Props["n"] != want {
			t.Fatalf("register %q: shard graph holds n=%q, sequential model says %q", reg(i), node.Props["n"], want)
		}
		rec, ok, err := reader.GetVertex(reg(i))
		if err != nil || !ok {
			t.Fatalf("backing read %q: ok=%v err=%v", reg(i), ok, err)
		}
		if rec.Props["n"] != want {
			t.Fatalf("register %q: backing store holds n=%q, want %q", reg(i), rec.Props["n"], want)
		}
	}
}

func TestStrictSerializability(t *testing.T) {
	runStressAndVerify(t, weaver.Config{
		Gatekeepers:    3,
		Shards:         3,
		AnnouncePeriod: 200 * time.Microsecond,
		NopPeriod:      100 * time.Microsecond,
	}, nil)
}

// TestStrictSerializabilityUnderMigration runs the full stress workload
// while a background migrator batch-moves the very registers under
// contention between shards (§4.6 online repartitioning) and a concurrent
// reader hammers them through the node-program path. Strict
// serializability must hold across every handoff, and no read may be lost:
// a register must never appear missing while its record changes homes.
func TestStrictSerializabilityUnderMigration(t *testing.T) {
	cfg := weaver.Config{
		Gatekeepers:    2,
		Shards:         3,
		AnnouncePeriod: 200 * time.Microsecond,
		NopPeriod:      100 * time.Microsecond,
		Directory:      weaver.NewMappedDirectory(3),
	}
	shards := cfg.Shards
	runStressAndVerify(t, cfg, func(c *weaver.Cluster, regs []weaver.VertexID, seed int64, ready func(), stop <-chan struct{}, errCh chan<- error) {
		var wg sync.WaitGroup
		// Migrator: rotate a sliding window of registers to the next
		// shard, one batched pause per window. The workload starts only
		// after the first batch lands (ready), guaranteeing writes and
		// reads really do overlap ongoing migrations.
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ready()
			const window = 8
			for i := 0; ; i++ {
				if i > 0 {
					select {
					case <-stop:
						return
					default:
					}
					time.Sleep(2 * time.Millisecond)
				}
				moves := make([]weaver.Move, 0, window)
				for j := 0; j < window; j++ {
					v := regs[(i*window+j)%len(regs)]
					moves = append(moves, weaver.Move{
						Vertex: v,
						Target: (c.Directory().Lookup(v) + 1) % shards,
					})
				}
				if _, err := c.MigrateBatch(moves); err != nil {
					errCh <- fmt.Errorf("migrate batch %d: %w", i, err)
					return
				}
				if i == 0 {
					ready()
				}
			}
		}()
		// Reader: a register mid-migration must stay continuously
		// readable through the full ordering machinery.
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := c.Client()
			r := rand.New(rand.NewSource(seed ^ 0x7265616465723939)) // distinct stream for the reader
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := regs[r.Intn(len(regs))]
				d, ok, err := cl.GetNode(v)
				if err != nil || !ok {
					errCh <- fmt.Errorf("read %d of %q lost during handoff: ok=%v err=%v", i, v, ok, err)
					return
				}
				if _, perr := strconv.Atoi(d.Props["n"]); perr != nil {
					errCh <- fmt.Errorf("register %q holds %q mid-migration: %v", v, d.Props["n"], perr)
					return
				}
			}
		}()
		wg.Wait()
		// The migrator must have actually exercised handoffs.
		if st := c.Stats().Rebalance; st.MovesTotal == 0 {
			errCh <- fmt.Errorf("migration chaos moved nothing: %+v", st)
		}
	})
}

// TestShardStopIdempotent: CrashShard (failure injection) followed by Close
// stops the same shard twice, which must not double-close its stop channel.
func TestShardStopIdempotent(t *testing.T) {
	c, err := weaver.Open(weaver.Config{Gatekeepers: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	if _, err := cl.RunTx(func(tx *weaver.Tx) error {
		tx.CreateVertex("v")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	c.CrashShard(0)
	if err := c.Close(); err != nil {
		t.Fatalf("close after crash: %v", err)
	}
}
