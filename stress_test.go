// One seeded stress body (runStress) and the configurations that drive it
// (TestStress/<name>). A run seeds a universe v00, v01, … in one
// transaction, lands the migrator's first batch, then runs writers —
// register increments checked as a history afterwards, or property, vertex
// and edge churn — beside checkers: a fresh probe must equal itself re-run
// at the timestamp it returned, and a pinned probe must re-read identically
// while pinned and after Quiesce. All randomness derives from one
// workload.TestSeed; a failure prints the command that replays it.
package weaver

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weaver/internal/gatekeeper"
	"weaver/internal/workload"
)

// A probe is one randomized read. fresh runs it at a timestamp the cluster
// mints and returns that timestamp; at runs it, or its oracle, at a given
// timestamp. Either may be nil when a checker does not need it.
type probe struct {
	name  string
	fresh func(cl *Client) (any, Timestamp, error)
	at    func(r *ReadClient) (any, error)
}

// A writer commits one randomized operation.
type writer func(s *stress, cl *Client, r *rand.Rand) error

// A churnOp is one mutation of a live vertex, drawn by weight.
type churnOp struct {
	weight int
	kind   churnKind
	keys   []string
}

type churnKind int

const (
	setKeys   churnKind = iota // set each key to a random value
	unsetKeys                  // delete each key, or set it when absent
	dropVertex
	linkVertex // an edge to a random vertex; 80 per run at most, so traversals stay small
)

type stressCase struct {
	name string
	cfg  Config
	n    int                                          // universe size
	init func(s *stress, tx *Tx, r *rand.Rand, i int) // seeds vertex i (all exist already)

	writers []writer
	ops     int // per-writer op budget; 0 = until the run stops

	// The migrator moves batch vertices (0 = none) every period: a sliding
	// window shifted one shard on, or a random sample each sent to a random
	// other shard.
	batch  int
	every  time.Duration
	window bool

	fresh  func(s *stress, r *rand.Rand, i int) probe // fresh-vs-at checker
	pinned func(s *stress, r *rand.Rand, i int) probe // pinned-snapshot checker
	keep   int                                        // pins the pinned checker holds
	rounds int                                        // per-checker budget; 0 = until the run stops

	run time.Duration // wall-clock window; 0 = until the budgeted workers finish
}

func TestStress(t *testing.T) {
	const ap, np, ms = 200 * time.Microsecond, 100 * time.Microsecond, time.Millisecond
	city := []string{"city"}
	// The index configurations keep the default announce/NOP cadences: tighter
	// ones flood a race-instrumented shard loop on one core, starving applies.
	cases := []stressCase{
		{name: "serializable", cfg: Config{Gatekeepers: 3, Shards: 3, AnnouncePeriod: ap, NopPeriod: np}, n: 24, init: zero,
			writers: slices.Repeat([]writer{increments(2)}, 6), ops: 100},
		{name: "serializable_migration", n: 24, init: zero,
			cfg:     Config{Gatekeepers: 2, Shards: 3, AnnouncePeriod: ap, NopPeriod: np, Directory: NewMappedDirectory(3)},
			writers: slices.Repeat([]writer{increments(2)}, 6), ops: 100,
			batch: 8, every: 2 * ms, window: true, fresh: registers(1)},
		{name: "timetravel", n: 12, init: zero,
			cfg: Config{Gatekeepers: 2, Shards: 3, AnnouncePeriod: ap, NopPeriod: np, GCPeriod: 2 * ms,
				ProgTimeout: 10 * time.Second, Directory: NewMappedDirectory(3)},
			writers: slices.Repeat([]writer{increments(1)}, 4), run: 400 * ms,
			batch: 4, every: 2 * ms,
			pinned: registers(4), keep: 8, rounds: 8},
		{name: "index", n: 36,
			cfg: Config{Gatekeepers: 2, Shards: 3, GCPeriod: 3 * ms, HistoryRetention: 900 * ms, ProgTimeout: 30 * time.Second,
				Directory: NewMappedDirectory(3), Indexes: []IndexSpec{{Key: "city"}}},
			init: func(s *stress, tx *Tx, _ *rand.Rand, i int) {
				tx.SetProperty(s.ids[i], "city", fmt.Sprintf("c%d", i%5))
			},
			writers: slices.Repeat([]writer{churn(0, churnOp{60, setKeys, city}, churnOp{15, unsetKeys, city}, churnOp{25, dropVertex, nil})}, 2),
			run:     1500 * ms, batch: 6, every: 25 * ms,
			fresh: eqOrRange, pinned: eqOrRange, keep: 5},
		{name: "parity", n: 24,
			cfg: Config{Gatekeepers: 2, Shards: 3, AnnouncePeriod: ap, NopPeriod: np, ProgTimeout: 10 * time.Second,
				Indexes: []IndexSpec{{Key: "city"}, {Key: "age"}}},
			init: func(s *stress, tx *Tx, _ *rand.Rand, i int) {
				tx.SetProperty(s.ids[i], "city", fmt.Sprintf("c%d", i%3))
				tx.SetProperty(s.ids[i], "age", fmt.Sprint(10+3*i))
				tx.CreateEdge(s.ids[i], s.ids[(i+1)%len(s.ids)])
			},
			writers: slices.Repeat([]writer{churn(400*time.Microsecond,
				churnOp{1, setKeys, city}, churnOp{1, setKeys, []string{"age"}}, churnOp{1, unsetKeys, city}, churnOp{1, linkVertex, nil})}, 2),
			fresh:  func(_ *stress, _ *rand.Rand, i int) probe { return readCases[i%len(readCases)] },
			rounds: 30 * len(readCases)},
		{name: "planner", n: 40,
			cfg: Config{Gatekeepers: 2, Shards: 4, GCPeriod: 20 * ms, HistoryRetention: 5 * time.Second, ProgTimeout: 30 * time.Second,
				Directory: NewMappedDirectory(4), Indexes: []IndexSpec{{Key: "city"}, {Key: "kind"}}},
			init: func(s *stress, tx *Tx, r *rand.Rand, i int) {
				if r.Intn(10) > 0 { // some vertices stay property-less
					tx.SetProperty(s.ids[i], "city", value(r, "city"))
				}
				if r.Intn(10) > 2 {
					tx.SetProperty(s.ids[i], "kind", value(r, "kind"))
				}
			},
			writers: []writer{
				churn(30*ms, churnOp{3, dropVertex, nil}, churnOp{4, unsetKeys, city}, churnOp{8, setKeys, []string{"city", "kind"}}),
				churn(400*time.Microsecond, churnOp{1, setKeys, city}), // races marker publications
			},
			batch: 5, every: 100 * ms,
			fresh: conjunction, pinned: conjunction, rounds: 50},
	}
	for _, sc := range cases {
		t.Run(sc.name, func(t *testing.T) { runStress(t, sc) })
	}
}

// stress is one run's state: the cluster, the universe, the stop/fail
// plumbing, and what the checkers collected.
type stress struct {
	stressCase
	c   *Cluster
	ids []VertexID

	stop     chan struct{}
	halt     func() // closes stop, once
	failOnce sync.Once
	err      error
	all      sync.WaitGroup // every worker
	budgeted sync.WaitGroup // workers with an op or round budget

	checks, stale, edges atomic.Int64
	mu                   sync.Mutex
	history              []committed
	pins                 []pinnedRead // pinned checker's goroutine only
}

// committed is one increment transaction: when its client began and saw
// it commit, and the value it read from each register it incremented.
type committed struct {
	begin, end time.Time
	reads      map[VertexID]int
}

type pinnedRead struct {
	snap  *Snapshot
	p     probe
	first any
}

func runStress(t *testing.T, sc stressCase) {
	seed := workload.TestSeed(t)
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("replay: WEAVER_TEST_SEED=%d go test -race -run 'TestStress/^%s$' .", seed, sc.name)
		}
	})
	rng := func(stream int64) *rand.Rand { return rand.New(rand.NewSource(seed + stream)) }
	scale := map[bool]int{false: 10, true: 3}[testing.Short()]
	short := func(n int) int { return max(min(n, 1), n*scale/10) } // budgets and windows, cut under -short
	s := &stress{stressCase: sc, c: openTest(t, sc.cfg), stop: make(chan struct{})}
	s.halt = sync.OnceFunc(func() { close(s.stop) })

	for i := 0; i < sc.n; i++ {
		s.ids = append(s.ids, VertexID(fmt.Sprintf("v%02d", i)))
	}
	r := rng(0)
	if _, err := s.c.Client().RunTx(func(tx *Tx) error {
		for _, v := range s.ids {
			tx.CreateVertex(v)
		}
		for i := range s.ids {
			sc.init(s, tx, r, i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if sc.batch > 0 {
		r := rng(100)
		if err := s.migrateBatch(r, 0); err != nil {
			t.Fatal(err)
		}
		s.loop("migrator", 0, func(i int) error {
			select {
			case <-s.stop:
				return nil
			case <-time.After(sc.every):
			}
			return s.migrateBatch(r, i+1)
		})
	}
	for w, write := range sc.writers {
		cl, r := s.c.Client(), rng(1+int64(w))
		s.loop(fmt.Sprint("writer ", w), short(sc.ops), func(int) error { return write(s, cl, r) })
	}
	if sc.fresh != nil {
		cl, r := s.c.Client(), rng(200)
		s.loop("fresh checker", short(sc.rounds), func(i int) error { return s.checkFresh(cl, sc.fresh(s, r, i)) })
	}
	if sc.pinned != nil {
		cl, r := s.c.Client(), rng(300)
		s.loop("pinned checker", short(sc.rounds), func(i int) error { return s.checkPinned(cl, sc.pinned(s, r, i)) })
	}
	if d := time.Duration(short(int(sc.run))); d > 0 {
		select {
		case <-s.stop:
		case <-time.After(d):
		}
	} else {
		s.budgeted.Wait()
	}
	s.halt()
	s.all.Wait()
	if s.err != nil {
		t.Fatal(s.err)
	}

	if err := s.c.Quiesce(10 * time.Second); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	for _, st := range s.c.Stats().Gatekeepers {
		if st.ApplyPending != 0 {
			t.Fatalf("apply fence passed with pending applies: %+v", st)
		}
	}
	if s.history != nil {
		if err := s.checkHistory(); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range s.pins {
		defer p.snap.Close()
		if err := s.reread(s.c.Client(), p); err != nil {
			t.Fatalf("after quiesce: %v", err)
		}
	}
	moves := s.c.Stats().Rebalance.MovesTotal
	t.Logf("%s: %d verified checks, %d stale-skipped, %d moves", sc.name, s.checks.Load(), s.stale.Load(), moves)
	if s.checks.Load() == 0 {
		t.Fatal("the run verified nothing")
	}
	if sc.batch > 0 && moves == 0 {
		t.Fatal("the migrator moved nothing")
	}
}

// loop runs step(0), step(1), … on its own goroutine until the run stops,
// a step fails (which stops the run), or budget steps are done.
func (s *stress) loop(name string, budget int, step func(i int) error) {
	s.all.Add(1)
	if budget > 0 {
		s.budgeted.Add(1)
	}
	go func() {
		defer s.all.Done()
		if budget > 0 {
			defer s.budgeted.Done()
		}
		for i := 0; budget == 0 || i < budget; i++ {
			select {
			case <-s.stop:
				return
			default:
			}
			if err := step(i); err != nil {
				s.failOnce.Do(func() { s.err = fmt.Errorf("%s: %w", name, err) })
				s.halt()
				return
			}
		}
	}()
}

func (s *stress) migrateBatch(r *rand.Rand, i int) error {
	shards := s.cfg.Shards
	perm := r.Perm(len(s.ids))
	moves := make([]Move, s.batch)
	for j := range moves {
		v, shift := s.ids[perm[j]], 1+r.Intn(shards-1)
		if s.window {
			v, shift = s.ids[(i*s.batch+j)%len(s.ids)], 1
		}
		moves[j] = Move{Vertex: v, Target: (s.c.Directory().Lookup(v) + shift) % shards}
	}
	if _, err := s.c.MigrateBatch(moves); err != nil {
		return fmt.Errorf("migrate batch %d: %w", i, err)
	}
	return nil
}

// checkFresh runs p fresh, then p.at at the timestamp that returned; the two
// must agree. A probe without at is checked by its own read alone.
func (s *stress) checkFresh(cl *Client, p probe) error {
	want, ts, err := p.fresh(cl)
	got := want
	if err == nil && p.at != nil && ts.Zero() {
		err = errors.New("no timestamp returned")
	} else if err == nil && p.at != nil {
		if got, err = p.at(cl.At(ts)); errors.Is(err, ErrStaleSnapshot) && s.cfg.GCPeriod > 0 {
			s.stale.Add(1) // GC passed the timestamp mid-check; rare
			return nil
		}
	}
	return s.agree(p.name, ts, want, got, err)
}

// checkPinned re-reads every held pin, then pins a new snapshot and reads p
// at it, holding at most keep pins.
func (s *stress) checkPinned(cl *Client, p probe) error {
	for _, held := range s.pins {
		if err := s.reread(cl, held); err != nil {
			return err
		}
	}
	snap, err := s.c.SnapshotTS()
	if err != nil {
		return err
	}
	first, err := p.at(cl.At(snap.TS()))
	if s.pins = append(s.pins, pinnedRead{snap, p, first}); len(s.pins) > s.keep {
		s.pins[0].snap.Close()
		s.pins = s.pins[1:]
	}
	time.Sleep(5 * time.Millisecond)
	return s.agree(p.name, snap.TS(), first, first, err)
}

// reread reads a held pin again: it must answer exactly as it first did.
func (s *stress) reread(cl *Client, held pinnedRead) error {
	got, err := held.p.at(cl.At(held.snap.TS()))
	return s.agree(held.p.name+" re-read", held.snap.TS(), held.first, got, err)
}

// agree counts a verified check, or reports err or got differing from want.
func (s *stress) agree(name string, ts Timestamp, want, got any, err error) error {
	if want, got = canon(want), canon(got); err == nil && !reflect.DeepEqual(want, got) {
		err = fmt.Errorf("\nwant %v\ngot  %v", want, got)
	}
	if err != nil {
		return fmt.Errorf("%s at %v: %w", name, ts, err)
	}
	s.checks.Add(1)
	return nil
}

func zero(s *stress, tx *Tx, _ *rand.Rand, i int) { tx.SetProperty(s.ids[i], "n", "0") }

// increments reads 1..k distinct random registers in one transaction,
// writes each back plus one, and records what it read.
func increments(k int) writer {
	return func(s *stress, cl *Client, r *rand.Rand) error {
		regs := r.Perm(len(s.ids))[:1+r.Intn(k)]
		begin := time.Now()
		var reads map[VertexID]int
		if _, err := cl.RunTx(func(tx *Tx) error {
			reads = make(map[VertexID]int, len(regs))
			for _, i := range regs {
				v := s.ids[i]
				d, ok, err := tx.GetVertex(v)
				if err != nil || !ok {
					return fmt.Errorf("read %s: ok=%v err=%v", v, ok, err)
				}
				n, err := strconv.Atoi(d.Props["n"])
				if err != nil {
					return fmt.Errorf("register %s: %w", v, err)
				}
				reads[v] = n
				tx.SetProperty(v, "n", strconv.Itoa(n+1))
			}
			return nil
		}); err != nil {
			return err
		}
		s.mu.Lock()
		s.history = append(s.history, committed{begin, time.Now(), reads})
		s.mu.Unlock()
		return nil
	}
}

// churn commits one op from mix, drawn by weight, to a random vertex,
// recreating it instead when it is dead, then sleeps up to pace. Every op
// is consistent with the read the transaction validates, so any error,
// ErrInvalid included, fails the run.
func churn(pace time.Duration, mix ...churnOp) writer {
	total := 0
	for _, op := range mix {
		total += op.weight
	}
	return func(s *stress, cl *Client, r *rand.Rand) error {
		v, dice := s.ids[r.Intn(len(s.ids))], r.Intn(total)
		op := mix[0]
		for _, op = range mix {
			if dice -= op.weight; dice < 0 {
				break
			}
		}
		_, err := cl.RunTx(func(tx *Tx) error {
			d, alive, err := tx.GetVertex(v)
			switch {
			case err != nil:
				return err
			case !alive:
				tx.CreateVertex(v)
				tx.SetProperty(v, "city", value(r, "city"))
			case op.kind == dropVertex:
				tx.DeleteVertex(v)
			case op.kind == linkVertex:
				if s.edges.Add(1) <= 80 {
					tx.CreateEdge(v, s.ids[r.Intn(len(s.ids))])
				}
			case op.kind == setKeys || op.kind == unsetKeys:
				for _, k := range op.keys {
					if _, has := d.Props[k]; has && op.kind == unsetKeys {
						tx.DelProperty(v, k)
					} else {
						tx.SetProperty(v, k, value(r, k))
					}
				}
			default:
				return fmt.Errorf("unknown churn kind %d", op.kind)
			}
			return nil
		})
		if pace > 0 {
			time.Sleep(time.Duration(r.Int63n(int64(pace))))
		}
		return err
	}
}

// value draws a value for a property key.
func value(r *rand.Rand, key string) string {
	switch key {
	case "kind":
		return fmt.Sprintf("k%d", r.Intn(3))
	case "age":
		return fmt.Sprint(10 + r.Intn(80))
	}
	return fmt.Sprintf("c%d", r.Intn(5))
}

// registers reads k random registers, each of which must be visible and
// hold an integer. Only a one-register probe has a fresh form: each fresh
// GetNode mints its own timestamp, so k of them share none.
func registers(k int) func(*stress, *rand.Rand, int) probe {
	return func(s *stress, r *rand.Rand, _ int) probe {
		var vs []VertexID
		for _, i := range r.Perm(len(s.ids))[:k] {
			vs = append(vs, s.ids[i])
		}
		read := func(rd reader) (any, Timestamp, error) {
			var ns []string
			var ts Timestamp
			for _, v := range vs {
				d, ok, t, err := rd.getNode(v)
				if err == nil && !ok {
					err = errors.New("invisible")
				} else if err == nil {
					_, err = strconv.Atoi(d.Props["n"])
				}
				if err != nil {
					return nil, ts, fmt.Errorf("register %s: %w", v, err)
				}
				ns, ts = append(ns, d.Props["n"]), t
			}
			return ns, ts, nil
		}
		p := probe{name: fmt.Sprint("GetNode ", vs), at: func(rc *ReadClient) (any, error) {
			ns, _, err := read(rc.rd)
			return ns, err
		}}
		if k == 1 {
			p.fresh = func(cl *Client) (any, Timestamp, error) { return read(cl.fresh()) }
		}
		return p
	}
}

// eqOrRange is a city equality, or an inclusive city range.
func eqOrRange(s *stress, r *rand.Rand, _ int) probe {
	lo, hi := value(r, "city"), value(r, "city")
	if r.Intn(2) == 0 {
		return s.lookup(0, Where{Key: "city", Op: OpEq, Value: lo})
	}
	return s.lookup(0, Where{Key: "city", Op: OpGe, Value: min(lo, hi)}, Where{Key: "city", Op: OpLe, Value: max(lo, hi)})
}

// conjunction is either 1-2 free predicates over city and kind with any of
// the five operators, or a range pair on one key whose bounds may be
// strict, unbounded (empty) or contradictory, under a limit of 0-3.
func conjunction(s *stress, r *rand.Rand, _ int) probe {
	pick := func() (key, val string) { // one past the domain (c5, k3), which no vertex holds
		if r.Intn(2) == 0 {
			return "city", fmt.Sprintf("c%d", r.Intn(6))
		}
		return "kind", fmt.Sprintf("k%d", r.Intn(4))
	}
	var ws []Where
	if r.Intn(2) == 0 {
		key, lo := pick()
		hi := lo[:1] + fmt.Sprint(r.Intn(6))
		lo, hi = []string{"", lo, lo, lo}[r.Intn(4)], []string{"", hi, hi, hi}[r.Intn(4)]      // 1 in 4 unbounded
		loOp, hiOp := []byte{OpGt, OpGe, OpGe}[r.Intn(3)], []byte{OpLt, OpLe, OpLe}[r.Intn(3)] // 1 in 3 strict
		ws = []Where{{Key: key, Op: loOp, Value: lo}, {Key: key, Op: hiOp, Value: hi}}
	} else {
		ops := []byte{OpEq, OpGe, OpLe, OpGt, OpLt}
		for n := 1 + r.Intn(2); n > 0; n-- {
			key, val := pick()
			ws = append(ws, Where{Key: key, Op: ops[r.Intn(len(ops))], Value: val})
		}
	}
	return s.lookup(r.Intn(4), ws...)
}

// lookup is a planned LookupWhere. Its oracle at a timestamp is a
// brute-force GetNode scan of the universe filtered by the test's own
// reading of the predicates: the planned result and the forced broadcast
// must equal it (truncated to limit), and so must the unlimited lookup of
// an inclusive range pair and Lookup for a single equality. Equality with the
// duplicate-free scan also rules out an ID reported twice.
func (s *stress) lookup(limit int, ws ...Where) probe {
	sorted := func(ids []VertexID) []VertexID { return slices.Sorted(slices.Values(ids)) }
	return probe{
		name: fmt.Sprintf("where %v limit %d", ws, limit),
		fresh: func(cl *Client) (any, Timestamp, error) {
			ids, ts, err := cl.LookupWhere(limit, ws...)
			return sorted(ids), ts, err
		},
		at: func(rc *ReadClient) (any, error) {
			var scan []VertexID
			for _, v := range s.ids { // ascending ID order
				d, alive, err := rc.GetNode(v)
				if err != nil {
					return nil, err
				}
				if alive && !slices.ContainsFunc(ws, func(w Where) bool { return !holds(w, d.Props) }) {
					scan = append(scan, v)
				}
			}
			want := scan
			if limit > 0 && len(want) > limit {
				want = want[:limit]
			}
			check := func(name string, want, ids []VertexID, err error) error {
				if err == nil && !slices.Equal(sorted(ids), want) {
					err = fmt.Errorf("%s %v != scan %v", name, sorted(ids), want)
				}
				return err
			}
			ids, err := rc.LookupWhere(limit, ws...)
			if err = check("planned", want, ids, err); err == nil {
				ids, _, err = rc.rd.lookup(gatekeeper.LookupOptions{Wheres: ws, Limit: limit, ForceBroadcast: true})
				err = check("broadcast", want, ids, err)
			}
			if err == nil && len(ws) == 2 && ws[0].Key == ws[1].Key && ws[0].Op == OpGe && ws[1].Op == OpLe {
				ids, err = rc.LookupWhere(0, ws...)
				err = check("range", scan, ids, err)
			}
			if err == nil && len(ws) == 1 && ws[0].Op == OpEq && limit == 0 {
				ids, err = rc.Lookup(ws[0].Key, ws[0].Value)
				err = check("Lookup", scan, ids, err)
			}
			return sorted(want), err
		},
	}
}

// holds is the test's own reading of one predicate against a vertex's
// properties (an empty inequality bound is the unbounded side).
func holds(w Where, props map[string]string) bool {
	val, has := props[w.Key]
	c := strings.Compare(val, w.Value)
	return has && (w.Op != OpEq && w.Value == "" ||
		map[byte]bool{OpEq: c == 0, OpGe: c >= 0, OpLe: c <= 0, OpGt: c > 0, OpLt: c < 0}[w.Op])
}

// checkHistory verifies the committed increments. Per register, the values
// read are exactly 0..c-1: each increment saw a unique predecessor (no lost
// update, no gap), which totally orders the register's increments. No
// increment is ordered before one that completed before it began
// (real time). The union of those orders is acyclic (serializable). After
// the apply fence, GetNode (the shard's versioned graph) and GetVertex (the
// backing store) both hold each register's count.
func (s *stress) checkHistory() error {
	byValue := make(map[VertexID]map[int]int) // register -> value read -> tx
	for i, h := range s.history {
		for v, n := range h.reads {
			if byValue[v] == nil {
				byValue[v] = make(map[int]int)
			}
			if j, dup := byValue[v][n]; dup {
				return fmt.Errorf("register %s: txs %d and %d both read %d (lost update)", v, j, i, n)
			}
			byValue[v][n] = i
		}
	}
	succ := make([][]int, len(s.history))
	preds := make([]int, len(s.history))
	for v, txs := range byValue {
		var latest time.Time // latest begin among the register's earlier increments
		for n := range len(txs) {
			i, ok := txs[n]
			if !ok {
				return fmt.Errorf("register %s: no committed tx read %d of %d (gap)", v, n, len(txs))
			}
			if h := s.history[i]; h.end.Before(latest) {
				return fmt.Errorf("register %s: tx %d completed before a tx ordered ahead of it began (real time)", v, i)
			} else if h.begin.After(latest) {
				latest = h.begin
			}
			if n > 0 {
				succ[txs[n-1]] = append(succ[txs[n-1]], i)
				preds[i]++
			}
		}
	}
	var ready []int // Kahn's topological sort of the union
	for i, p := range preds {
		if p == 0 {
			ready = append(ready, i)
		}
	}
	for range s.history {
		if len(ready) == 0 {
			return errors.New("serialization graph has a cycle: the history is not serializable")
		}
		i := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		for _, j := range succ[i] {
			if preds[j]--; preds[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	s.checks.Add(int64(len(s.history)))

	cl := s.c.Client()
	for _, v := range s.ids {
		want := strconv.Itoa(len(byValue[v]))
		node, ok, err := cl.GetNode(v)
		rec, recOK, recErr := cl.GetVertex(v)
		if err != nil || recErr != nil || !ok || !recOK || node.Props["n"] != want || rec.Props["n"] != want {
			return fmt.Errorf("register %s: model says %s; shard graph %v (ok=%v err=%v), backing store %v (ok=%v err=%v)",
				v, want, node, ok, err, rec, recOK, recErr)
		}
	}
	return nil
}
