package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"weaver"
	"weaver/internal/workload"
)

// opClass is one kind of client operation. Classes at or above
// opCreateEdge are write transactions; the rest are reads.
type opClass uint8

const (
	opGetNode opClass = iota
	opGetEdges
	opCountEdges
	opLookup
	opPinnedGetNode
	opTraverse
	opCreateEdge
	opDeleteEdge
	opSetCity
	numClasses
)

var classNames = [numClasses]string{
	"get_node", "get_edges", "count_edges", "lookup", "pinned_get_node",
	"traverse", "create_edge", "delete_edge", "set_city",
}

func (c opClass) String() string { return classNames[c] }
func (c opClass) isWrite() bool  { return c >= opCreateEdge }

// Fixed shape of every run (see README "Fixed shape"). The client count
// equals this box's core count and is recorded in BENCHMARK.json rather
// than derived at run time, so numbers from two machines are never
// silently compared at different concurrency.
const (
	numClients     = 2
	numGatekeepers = 2
	numShards      = 2
	socialDegree   = 8
	cityValues     = 500
	hotSetSize     = 64   // vertices both gatekeepers fight over
	hotShare       = 0.05 // share of create_edge ops that start in the hot set
	traverseDepth  = 3
	oplogPrefix    = 20000 // ops hashed into oplog_sha256 and replayed by the probes
)

type weight struct {
	class opClass
	w     float64
}

// writeMix is the write_durable transaction mix; social_mixed reuses it
// for its write share.
var writeMix = []weight{{opCreateEdge, 0.45}, {opDeleteEdge, 0.45}, {opSetCity, 0.10}}

func scaled(mix []weight, share float64) []weight {
	out := make([]weight, len(mix))
	for i, m := range mix {
		out[i] = weight{m.class, m.w * share}
	}
	return out
}

// workloadSpec names one workload: what runs and why it is in the set.
type workloadSpec struct {
	name    string
	why     string
	mix     []weight
	durable bool // WALPath set: commits are fsynced before they are acknowledged
	pinned  bool // a rotating pinned snapshot is held for opPinnedGetNode
}

// The TAO read/write proportions are the paper's Table 1.
var workloads = []workloadSpec{
	{
		name: "tao_read",
		why:  "paper fig 9a/10 TAO mix, 99.8% point reads: wait-bound, so it shows gatekeeper/NOP/hand-off latency and nothing else",
		mix: []weight{
			{opGetEdges, 0.998 * 0.594}, {opCountEdges, 0.998 * 0.117}, {opGetNode, 0.998 * 0.289},
			{opCreateEdge, 0.002 * 0.80}, {opDeleteEdge, 0.002 * 0.20},
		},
	},
	{
		name:    "write_durable",
		why:     "100% fsynced write txs with a contended hot set: work- and fsync-bound, bypasses the read path, catches CPU burnt on extra NOPs",
		mix:     writeMix,
		durable: true,
	},
	{
		name: "social_mixed",
		why:  "LinkBench-like 60/40 reads+writes with index lookups and pinned historical reads: reads wait on applies, index and GC run under load",
		mix: append([]weight{
			{opGetNode, 0.20}, {opGetEdges, 0.20}, {opLookup, 0.10}, {opPinnedGetNode, 0.10},
		}, scaled(writeMix, 0.40)...),
		pinned: true,
	},
	{
		name: "traverse_bfs",
		why:  "paper fig 11 depth-3 traversals on a static graph: the only work-bound read (visits, view materialisation, cross-shard hops), commit path idle",
		mix:  []weight{{opTraverse, 1}},
	},
}

// writeShare is the share of the mix that is write transactions. The side
// above one half carries the workload (see e2eDefs).
func (s *workloadSpec) writeShare() float64 {
	var writes, total float64
	for _, m := range s.mix {
		total += m.w
		if m.class.isWrite() {
			writes += m.w
		}
	}
	return writes / total
}

func findWorkload(name string) (*workloadSpec, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// socialGraph is the generated input every workload runs on: the
// preferential-attachment graph of internal/workload plus a city property
// per vertex, in index form (vertex i is "user/i") so the offline models
// the outputs are checked against are slices, not maps of strings.
type socialGraph struct {
	ids  []weaver.VertexID
	adj  [][]uint32 // out-neighbours by vertex index
	city []uint16   // initial city value index per vertex
}

func cityName(v uint16) string { return fmt.Sprintf("c%03d", v) }

func generateGraph(n int, seed int64) *socialGraph {
	g := workload.Social(n, socialDegree, seed)
	sg := &socialGraph{ids: g.Vertices, adj: make([][]uint32, n), city: make([]uint16, n)}
	for _, e := range g.Edges {
		from, _ := vertexIndex(e.From)
		to, _ := vertexIndex(e.To)
		sg.adj[from] = append(sg.adj[from], to)
	}
	r := rand.New(rand.NewSource(seed ^ 0x63697479)) // "city"
	for i := range sg.city {
		sg.city[i] = uint16(r.Intn(cityValues))
	}
	return sg
}

// vertexIndex inverts the generator's "user/<i>" naming.
func vertexIndex(v weaver.VertexID) (uint32, bool) {
	s, ok := strings.CutPrefix(string(v), "user/")
	if !ok {
		return 0, false
	}
	i, err := strconv.ParseUint(s, 10, 32)
	return uint32(i), err == nil
}

func (g *socialGraph) edgeCount() int {
	n := 0
	for _, a := range g.adj {
		n += len(a)
	}
	return n
}

// bulkInput renders the graph in BulkLoadGraph's input form.
func (g *socialGraph) bulkInput() ([]weaver.BulkVertex, []weaver.BulkEdge) {
	vs := make([]weaver.BulkVertex, len(g.ids))
	es := make([]weaver.BulkEdge, 0, g.edgeCount())
	for i, id := range g.ids {
		vs[i] = weaver.BulkVertex{ID: id, Props: map[string]string{"city": cityName(g.city[i])}}
		for _, to := range g.adj[i] {
			es = append(es, weaver.BulkEdge{From: id, To: g.ids[to]})
		}
	}
	return vs, es
}

// op is one generated client operation. Everything the cluster receives
// is derived from these fields; nothing is drawn at execution time.
type op struct {
	class opClass
	v     uint32 // subject vertex (start vertex, edge source, property owner)
	to    uint32 // create_edge target
	val   uint16 // lookup / set_city value index
	pick  uint32 // delete_edge: which of the client's live edges; pinned_get_node: repeat selector
}

// opGen is one client's deterministic operation stream. The stream is a
// pure function of (seed, workload, client): delete_edge needs a live edge
// created by the same client, so the generator carries the live-edge count
// the executor will have (every op succeeds on these workloads) and turns
// a delete with nothing to delete into a create.
type opGen struct {
	r       *rand.Rand
	mix     []weight
	total   float64
	n       uint32
	client  uint32
	clients uint32
	live    int
}

func newOpGen(spec *workloadSpec, n int, seed int64, client int) *opGen {
	g := &opGen{
		r:   rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + int64(len(spec.name)))),
		mix: spec.mix, n: uint32(n), client: uint32(client), clients: numClients,
	}
	for _, m := range spec.mix {
		g.total += m.w
	}
	return g
}

func (g *opGen) next() op {
	x := g.r.Float64() * g.total
	class := g.mix[len(g.mix)-1].class
	for _, m := range g.mix {
		if x < m.w {
			class = m.class
			break
		}
		x -= m.w
	}
	o := op{class: class, v: uint32(g.r.Intn(int(g.n))), pick: g.r.Uint32()}
	switch class {
	case opDeleteEdge:
		if g.live > 0 {
			g.live--
			break
		}
		o.class = opCreateEdge
		fallthrough
	case opCreateEdge:
		if g.r.Float64() < hotShare {
			o.v = uint32(g.r.Intn(hotSetSize))
		}
		o.to = uint32(g.r.Intn(int(g.n)))
		g.live++
	case opSetCity:
		// Each client owns the vertices congruent to its index, so the
		// final city of every vertex has exactly one writer and the
		// offline model is race-free.
		o.v = o.v/g.clients*g.clients + g.client
		if o.v >= g.n {
			o.v = g.client
		}
		o.val = uint16(g.r.Intn(cityValues))
	case opLookup:
		o.val = uint16(g.r.Intn(cityValues))
	}
	return o
}

// oplog materialises the first n ops of every client's stream; the hash
// over them is the run's input fingerprint.
func oplog(spec *workloadSpec, vertices int, seed int64, n int) [][]op {
	logs := make([][]op, numClients)
	for c := range logs {
		g := newOpGen(spec, vertices, seed, c)
		logs[c] = make([]op, n)
		for i := range logs[c] {
			logs[c][i] = g.next()
		}
	}
	return logs
}

func oplogSHA256(logs [][]op) string {
	h := sha256.New()
	var buf [15]byte
	for _, log := range logs {
		for _, o := range log {
			buf[0] = byte(o.class)
			binary.LittleEndian.PutUint32(buf[1:], o.v)
			binary.LittleEndian.PutUint32(buf[5:], o.to)
			binary.LittleEndian.PutUint16(buf[9:], o.val)
			binary.LittleEndian.PutUint32(buf[11:], o.pick)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ball returns the vertices within depth hops of start along out-edges —
// the offline BFS the traversal outputs are held against. mark is caller
// scratch of len(adj), reused across calls via the stamp.
func (g *socialGraph) ball(start uint32, depth int, mark []uint32, stamp uint32) []uint32 {
	mark[start] = stamp
	out := []uint32{start}
	for lo, d := 0, 0; d < depth; d++ {
		hi := len(out)
		for _, v := range out[lo:hi] {
			for _, to := range g.adj[v] {
				if mark[to] != stamp {
					mark[to] = stamp
					out = append(out, to)
				}
			}
		}
		lo = hi
	}
	return out
}
