package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"weaver"
	"weaver/internal/nodeprog"
	"weaver/internal/obs"
)

// sizes are the knobs -seconds and -smoke move; everything else about a
// run is fixed (workloads.go constants, clusterConfig).
type sizes struct {
	vertices int
	setups   int // timed set-ups per run; setup_s is their median
	warmup   time.Duration
	window   time.Duration
	probeOps int
}

// socialVertices is N, the size of the social graph: the smallest round
// number at which one set-up (Open + bulk load + Quiesce) takes at least
// two seconds on the reference box, because sub-second set-ups do not
// repeat within a tenth. Recorded in BENCHMARK.json's workload notes.
const socialVertices = 100000

// sizesFor scales every window from the measured one: warm-up is a tenth
// of it, the traced run a third (3 s / 30 s / 10 s at the default).
func sizesFor(seconds int, smoke, traced bool) sizes {
	sz := sizes{
		vertices: socialVertices,
		setups:   3,
		warmup:   time.Duration(seconds) * time.Second / 10,
		window:   time.Duration(seconds) * time.Second,
		probeOps: oplogPrefix,
	}
	if smoke {
		sz = sizes{vertices: 4000, setups: 1, warmup: 200 * time.Millisecond, window: 2 * time.Second, probeOps: 1000}
	}
	if traced {
		// Whole seconds, so every per-second bucket is a full one.
		sz.setups = 1
		sz.window = max(sz.window/3/time.Second, 1) * time.Second
	}
	return sz
}

// clusterConfig is the one configuration every workload runs under.
// Nothing else is set: announce and NOP periods, shard workers, apply-lag
// bound, trace sampling and metrics stay at the shipped defaults, so a
// change to a default shows up here and observability costs what users
// pay for it. Injected message delay is 0.
//
// GCPeriod is one second, not the 100 ms the issue first named. A version
// sweep scans every vertex and edge of a shard on its event loop (about
// 35 ms per 50 000-vertex shard here), so at 100 ms the shards spend a
// third of their time stalled: traverse_bfs drops from ~370 to ~90 op/s
// and write_durable throughput swings between 550 and 1750 op/s from one
// run to the next, which no bound can gate. With GC off the timeline
// oracle is never pruned and write_durable decays from 3800 to 400 op/s
// within fifteen seconds. One sweep per second keeps the oracle pruned,
// puts exactly one sweep in every per-second throughput window, and
// leaves the stalls in p99 where the diagnostics show them (README,
// "GC period").
func clusterConfig(walPath string, traced bool) weaver.Config {
	cfg := weaver.Config{
		Gatekeepers: numGatekeepers,
		Shards:      numShards,
		Directory:   weaver.NewMappedDirectory(numShards),
		GCPeriod:    time.Second,
		Indexes:     []weaver.IndexSpec{{Key: "city"}},
		WALPath:     walPath,
	}
	if traced {
		cfg.TraceSample = 1
	}
	return cfg
}

// span is one timed interval of the benchmark's own making: a client
// operation (root, Parent 0) or a call into a layer by a probe. Times are
// microseconds since the run started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Client int     `json:"client,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// runResult is everything one run of one workload measured.
type runResult struct {
	spec      *workloadSpec
	sz        sizes
	traced    bool
	setupS    []float64
	bulk      weaver.BulkLoadStats
	perSecond []int
	latMS     [numClasses][]float64 // sorted, in-window only
	attempted int                   // every client op issued, warm-up included
	failed    int
	checks    int // post-run output checks
	checkFail int
	errs      []string

	statsStart, statsEnd     weaver.Stats
	metricsStart, metricsEnd obs.Snapshot
	heapInuseMB              float64
	recoveryS                float64 // write_durable: reopen from WALPath
	visitedSum, ballSum      int     // traversals: vertices returned vs. in the offline BFS ball
	start                    time.Time
	spans                    []span // traced run: one root span per client op
}

func (r *runResult) windowOps() int {
	n := 0
	for _, c := range r.perSecond {
		n += c
	}
	return n
}

// classLat merges the sorted samples of the classes keep selects.
func (r *runResult) classLat(keep func(opClass) bool) []float64 {
	var out []float64
	for c := opClass(0); c < numClasses; c++ {
		if keep(c) {
			out = append(out, r.latMS[c]...)
		}
	}
	sort.Float64s(out)
	return out
}

// pin is one pinned snapshot shared by the clients. Readers hold mu
// shared across a historical read so the rotation cannot close the
// snapshot under them.
type pin struct {
	mu   sync.RWMutex
	snap *weaver.Snapshot // nil once closed
}

type pinner struct{ cur atomic.Pointer[pin] }

func (p *pinner) acquire() *pin {
	for {
		x := p.cur.Load()
		x.mu.RLock()
		if x.snap != nil {
			return x
		}
		x.mu.RUnlock()
	}
}

func (p *pinner) rotate(c *weaver.Cluster) error {
	s, err := c.SnapshotTS()
	if err != nil {
		return fmt.Errorf("pin snapshot: %w", err)
	}
	p.close(p.cur.Swap(&pin{snap: s}))
	return nil
}

func (p *pinner) close(old *pin) {
	if old == nil {
		return
	}
	old.mu.Lock()
	old.snap.Close()
	old.snap = nil
	old.mu.Unlock()
}

type edgeRef struct {
	from, to uint32
	id       weaver.EdgeID
}

// shared is the state the clients of one run have in common.
type shared struct {
	g *socialGraph
	// touched[v] is set before any write to v is issued. A read that
	// finds it unset after returning cannot have overlapped a write, so
	// its result must equal the generated graph exactly.
	touched []atomic.Bool
	pins    pinner
	start   time.Time
	from    time.Time // window start
	until   time.Time // window end
	traced  bool
}

type client struct {
	id  int
	cl  *weaver.Client
	gen *opGen
	sh  *shared

	ledger []edgeRef         // live edges this client created
	cityW  map[uint32]uint16 // last city this client wrote, own vertices only

	mark  []uint32 // ball scratch
	stamp uint32
	// vertices the traversals returned, and the sizes of their BFS balls
	visitedSum, ballSum int

	seenPin  *pin // snapshot the entries of seen were read at
	seen     map[uint32]string
	seenList []uint32

	latMS     [numClasses][]float64
	perSecond []int
	attempted int
	failed    int
	errs      []string
	spans     []span
}

const maxSeen = 512 // pinned reads remembered per snapshot for the repeat check

func renderNode(nd *nodeprog.NodeData, ok bool) string {
	if !ok {
		return "<absent>"
	}
	keys := make([]string, 0, len(nd.Props))
	for k := range nd.Props {
		keys = append(keys, k+"="+nd.Props[k])
	}
	sort.Strings(keys)
	return fmt.Sprintf("%s|%d|%s", nd.ID, nd.NumEdges, strings.Join(keys, ","))
}

// indices maps returned vertex IDs to sorted generator indices.
func indices(ids []weaver.VertexID) ([]uint32, error) {
	out := make([]uint32, len(ids))
	for i, id := range ids {
		v, ok := vertexIndex(id)
		if !ok {
			return nil, fmt.Errorf("unknown vertex %q in result", id)
		}
		out[i] = v
	}
	slices.Sort(out)
	return out, nil
}

func sortedCopy(vs []uint32) []uint32 {
	out := slices.Clone(vs)
	slices.Sort(out)
	return out
}

// exec issues one operation and checks its output. t0/t1 bracket the
// client call alone; a non-nil error is a failed op (the call failed or
// returned a wrong result).
func (c *client) exec(o op) (t0, t1 time.Time, err error) {
	g := c.sh.g
	id := g.ids[o.v]
	untouched := func() bool { return !c.sh.touched[o.v].Load() }
	switch o.class {
	case opGetNode:
		t0 = time.Now()
		nd, ok, e := c.cl.GetNode(id)
		t1 = time.Now()
		if e != nil {
			return t0, t1, e
		}
		if untouched() && (!ok || nd.NumEdges != len(g.adj[o.v]) || nd.Props["city"] != cityName(g.city[o.v])) {
			err = fmt.Errorf("get_node %s = %s, want %d edges city %s", id, renderNode(nd, ok), len(g.adj[o.v]), cityName(g.city[o.v]))
		}
	case opGetEdges:
		t0 = time.Now()
		tos, e := c.cl.GetEdges(id)
		t1 = time.Now()
		if e != nil {
			return t0, t1, e
		}
		if untouched() {
			got, e := indices(tos)
			if e != nil || !slices.Equal(got, sortedCopy(g.adj[o.v])) {
				err = fmt.Errorf("get_edges %s = %v (%v), want %v", id, tos, e, g.adj[o.v])
			}
		}
	case opCountEdges:
		t0 = time.Now()
		n, e := c.cl.CountEdges(id)
		t1 = time.Now()
		if e != nil {
			return t0, t1, e
		}
		if untouched() && n != len(g.adj[o.v]) {
			err = fmt.Errorf("count_edges %s = %d, want %d", id, n, len(g.adj[o.v]))
		}
	case opLookup:
		t0 = time.Now()
		ids, _, e := c.cl.Lookup("city", cityName(o.val))
		t1 = time.Now()
		if e != nil {
			return t0, t1, e
		}
		// Exact membership is checked for all values after Quiesce;
		// under concurrent writers only the shape is checkable.
		if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
			err = fmt.Errorf("lookup city=%s: result not sorted and unique", cityName(o.val))
		}
	case opPinnedGetNode:
		p := c.sh.pins.acquire()
		if p != c.seenPin {
			c.seenPin, c.seen, c.seenList = p, make(map[uint32]string), c.seenList[:0]
		}
		v := o.v
		if o.pick%4 == 0 && len(c.seenList) > 0 {
			v = c.seenList[int(o.pick/4)%len(c.seenList)] // read it a second time
		}
		t0 = time.Now()
		nd, ok, e := c.cl.At(p.snap.TS()).GetNode(g.ids[v])
		t1 = time.Now()
		p.mu.RUnlock()
		if e != nil {
			return t0, t1, e
		}
		got := renderNode(nd, ok)
		if first, again := c.seen[v]; again {
			if got != first {
				err = fmt.Errorf("pinned get_node %s changed under one snapshot: %s then %s", g.ids[v], first, got)
			}
		} else if len(c.seenList) < maxSeen {
			c.seen[v] = got
			c.seenList = append(c.seenList, v)
		}
	case opTraverse:
		t0 = time.Now()
		visited, _, e := c.cl.Traverse(id, "", "", traverseDepth)
		t1 = time.Now()
		if e != nil {
			return t0, t1, e
		}
		err = c.checkTraversal(o.v, visited)
	case opCreateEdge:
		c.sh.touched[o.v].Store(true)
		var placeholder weaver.EdgeID
		t0 = time.Now()
		info, e := c.cl.RunTx(func(tx *weaver.Tx) error {
			placeholder = tx.CreateEdge(id, g.ids[o.to])
			return nil
		})
		t1 = time.Now()
		if e != nil {
			return t0, t1, e
		}
		c.ledger = append(c.ledger, edgeRef{from: o.v, to: o.to, id: info.Edges[placeholder]})
	case opDeleteEdge:
		if len(c.ledger) == 0 {
			now := time.Now()
			return now, now, errors.New("delete_edge with an empty ledger: generator and executor diverged")
		}
		i := int(o.pick) % len(c.ledger)
		e := c.ledger[i]
		c.ledger[i] = c.ledger[len(c.ledger)-1]
		c.ledger = c.ledger[:len(c.ledger)-1]
		t0 = time.Now()
		_, err = c.cl.RunTx(func(tx *weaver.Tx) error {
			tx.DeleteEdge(g.ids[e.from], e.id)
			return nil
		})
		t1 = time.Now()
	case opSetCity:
		c.sh.touched[o.v].Store(true)
		t0 = time.Now()
		_, err = c.cl.RunTx(func(tx *weaver.Tx) error {
			tx.SetProperty(id, "city", cityName(o.val))
			return nil
		})
		t1 = time.Now()
		c.cityW[o.v] = o.val
	}
	return t0, t1, err
}

// checkTraversal holds a depth-limited traversal against the offline BFS.
// The shipped traverse program marks a vertex visited at whatever depth
// first reaches it and shards cascade local hops depth-first, so a vertex
// first reached at the depth limit is not expanded even when a shorter
// path exists: the visited set is a subset of the BFS ball, not always the
// ball (see README "traverse_bfs verification"). What the program does
// guarantee is checked exactly: no duplicates, nothing outside the ball,
// and the start with all its out-neighbours present.
func (c *client) checkTraversal(start uint32, visited []weaver.VertexID) error {
	got, err := indices(visited)
	if err != nil {
		return err
	}
	c.stamp++
	ball := c.sh.g.ball(start, traverseDepth, c.mark, c.stamp)
	c.visitedSum += len(got)
	c.ballSum += len(ball)
	for i, v := range got {
		if i > 0 && got[i-1] == v {
			return fmt.Errorf("traverse from %d: vertex %d visited twice", start, v)
		}
		if c.mark[v] != c.stamp {
			return fmt.Errorf("traverse from %d: vertex %d is outside the depth-%d ball", start, v, traverseDepth)
		}
	}
	for _, v := range ball[:1+len(c.sh.g.adj[start])] {
		if _, found := slices.BinarySearch(got, v); !found {
			return fmt.Errorf("traverse from %d: vertex %d (depth <= 1) missing", start, v)
		}
	}
	return nil
}

// loop is one closed-loop client: the next operation is issued only when
// the previous one has returned.
func (c *client) loop() {
	for time.Now().Before(c.sh.until) {
		o := c.gen.next()
		t0, t1, err := c.exec(o)
		c.attempted++
		if err != nil {
			c.failed++
			if len(c.errs) < 3 {
				c.errs = append(c.errs, fmt.Sprintf("%s: %v", o.class, err))
			}
		}
		if err != nil || t0.Before(c.sh.from) || !t1.Before(c.sh.until) {
			continue
		}
		c.perSecond[int(t1.Sub(c.sh.from)/time.Second)]++
		c.latMS[o.class] = append(c.latMS[o.class], float64(t1.Sub(t0))/1e6)
		if c.sh.traced {
			c.spans = append(c.spans, span{
				Layer: "client", Name: o.class.String(), Client: c.id,
				Start: float64(t0.Sub(c.sh.start)) / 1e3, End: float64(t1.Sub(c.sh.start)) / 1e3,
			})
		}
	}
}

// setUp opens a cluster and bulk-loads the graph: weaver.Open through
// load through the first Quiesce, which is what setup_s times.
func setUp(cfg weaver.Config, vs []weaver.BulkVertex, es []weaver.BulkEdge) (*weaver.Cluster, weaver.BulkLoadStats, error) {
	c, err := weaver.Open(cfg)
	if err != nil {
		return nil, weaver.BulkLoadStats{}, err
	}
	st, err := c.BulkLoadGraph(vs, es)
	if err == nil {
		err = c.Quiesce(30 * time.Second)
	}
	if err != nil {
		c.Close()
		return nil, st, fmt.Errorf("set-up: %w", err)
	}
	return c, st, nil
}

// runWorkload sets the cluster up, drives the clients through warm-up
// and the measured window, quiesces, and verifies the outputs. scratch is
// a directory the run may create files under (the WAL).
func runWorkload(spec *workloadSpec, g *socialGraph, sz sizes, seed int64, traced bool, scratch string) (*runResult, error) {
	res := &runResult{spec: spec, sz: sz, traced: traced}
	vs, es := g.bulkInput()

	var c *weaver.Cluster
	walPath := ""
	for i := 0; i < sz.setups; i++ {
		if c != nil {
			c.Close()
		}
		if spec.durable {
			dir, err := os.MkdirTemp(scratch, "wal-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			walPath = filepath.Join(dir, "store")
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		t0 := time.Now()
		var err error
		c, res.bulk, err = setUp(clusterConfig(walPath, traced), vs, es)
		if err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	defer func() { c.Close() }()

	sh := &shared{g: g, touched: make([]atomic.Bool, len(g.ids)), traced: traced}
	if spec.pinned {
		if err := sh.pins.rotate(c); err != nil {
			return nil, err
		}
		defer func() { sh.pins.close(sh.pins.cur.Load()) }()
	}
	clients := make([]*client, numClients)
	for i := range clients {
		cl, err := c.ClientAt(i % numGatekeepers)
		if err != nil {
			return nil, err
		}
		clients[i] = &client{
			id: i, cl: cl, gen: newOpGen(spec, len(g.ids), seed, i), sh: sh,
			cityW: make(map[uint32]uint16), mark: make([]uint32, len(g.ids)),
			perSecond: make([]int, int(sz.window/time.Second)),
		}
	}

	sh.start = time.Now()
	sh.from = sh.start.Add(sz.warmup)
	sh.until = sh.from.Add(sz.window)
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.loop()
		}()
	}
	stopPins := make(chan struct{})
	var pinErr error
	if spec.pinned {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(sz.window / 6)
			defer tick.Stop()
			for {
				select {
				case <-stopPins:
					return
				case <-tick.C:
					if err := sh.pins.rotate(c); err != nil {
						pinErr = err
						return
					}
				}
			}
		}()
	}
	time.Sleep(time.Until(sh.from))
	res.statsStart, res.metricsStart = c.Stats(), c.Metrics()
	time.Sleep(time.Until(sh.until))
	res.statsEnd, res.metricsEnd = c.Stats(), c.Metrics()
	close(stopPins)
	wg.Wait()
	if pinErr != nil {
		return nil, pinErr
	}

	res.perSecond = make([]int, int(sz.window/time.Second))
	for _, cl := range clients {
		for i := range res.perSecond {
			res.perSecond[i] += cl.perSecond[i]
		}
		for k := range cl.latMS {
			res.latMS[k] = append(res.latMS[k], cl.latMS[k]...)
		}
		res.attempted += cl.attempted
		res.visitedSum += cl.visitedSum
		res.ballSum += cl.ballSum
		res.failed += cl.failed
		res.errs = append(res.errs, cl.errs...)
		res.spans = append(res.spans, cl.spans...)
	}
	for k := range res.latMS {
		sort.Float64s(res.latMS[k])
	}
	res.start = sh.start
	for i := range res.spans {
		res.spans[i].ID = i + 1
	}

	if err := c.Quiesce(30 * time.Second); err != nil {
		return nil, fmt.Errorf("quiesce after the window: %w", err)
	}
	v := newVerifier(res, g, clients, seed)
	v.afterQuiesce(c, sh)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapInuseMB = float64(ms.HeapInuse) / (1 << 20)

	if spec.durable {
		if err := c.Close(); err != nil {
			return nil, fmt.Errorf("close before reopen: %w", err)
		}
		t0 := time.Now()
		var err error
		c, err = weaver.Open(clusterConfig(walPath, traced))
		if err != nil {
			return nil, fmt.Errorf("reopen from WAL: %w", err)
		}
		res.recoveryS = time.Since(t0).Seconds()
		v.afterReopen(c)
	}
	return res, nil
}
