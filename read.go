package weaver

// The read path. Every read is what to evaluate — a node program or a
// predicate conjunction — plus the timestamp to evaluate it at, from here
// to the shards; the zero timestamp asks the gatekeeper to mint a fresh one
// (the strictly serializable current read), any other reads the graph as of
// that moment (§4.5). Each read is implemented once, on reader, and returns
// the timestamp it read at; Client's methods are the reader at the zero
// timestamp and ReadClient's the reader at its fixed one.

import (
	"errors"

	"weaver/internal/gatekeeper"
	"weaver/internal/nodeprog"
)

// errZeroReadTS rejects historical reads at the zero timestamp: to the
// gatekeeper a zero read timestamp means "mint a fresh snapshot", so
// passing an uninitialized timestamp through would silently return
// CURRENT data to a caller who asked for the past.
var errZeroReadTS = errors.New("weaver: historical read at zero timestamp")

// errUnissuedReadTS rejects historical reads at a timestamp ahead of every
// gatekeeper's clock: one from another cluster, or made up. The shard that
// parks a read hands its timestamp to the gatekeepers it waits on
// (wire.NopRequest), and they would order later commits by its inflated
// components instead of real time.
var errUnissuedReadTS = errors.New("weaver: historical read at a timestamp this cluster has not issued")

// reader runs reads through cl's gatekeeper at ts.
type reader struct {
	cl *Client
	ts Timestamp
	// fixed marks a ReadClient's reader, whose zero ts is a caller's
	// uninitialized timestamp rather than a request for a fresh one.
	fixed bool
}

// fresh is the reader behind Client's reads.
func (cl *Client) fresh() reader { return reader{cl: cl} }

// readTS is the timestamp handed to the gatekeeper.
func (rd reader) readTS() (Timestamp, error) {
	switch {
	case !rd.fixed:
		return rd.ts, nil
	case rd.ts.Zero():
		return rd.ts, errZeroReadTS
	case !rd.ts.PointwiseLE(rd.cl.c.issued()):
		return rd.ts, errUnissuedReadTS
	}
	return rd.ts, nil
}

func (rd reader) run(name string, params []byte, start ...VertexID) ([][]byte, Timestamp, error) {
	ts, err := rd.readTS()
	if err != nil {
		return nil, ts, err
	}
	return rd.cl.gk().RunProgram(ts, name, params, start)
}

func (rd reader) runWhere(name string, params []byte, key, value string) ([][]byte, Timestamp, error) {
	ts, err := rd.readTS()
	if err != nil {
		return nil, ts, err
	}
	return rd.cl.gk().RunProgramWhere(ts, key, value, name, params)
}

func (rd reader) lookup(opts gatekeeper.LookupOptions) ([]VertexID, Timestamp, error) {
	ts, err := rd.readTS()
	if err != nil {
		return nil, ts, err
	}
	return rd.cl.gk().Lookup(ts, opts)
}

// nodeData runs a one-vertex program returning nodeprog.NodeData; a nil
// result means the vertex is not visible at the read timestamp.
func (rd reader) nodeData(prog string, id VertexID) (*nodeprog.NodeData, Timestamp, error) {
	res, ts, err := rd.run(prog, nil, id)
	if err != nil || len(res) == 0 {
		return nil, ts, err
	}
	var d nodeprog.NodeData
	if err := nodeprog.Decode(res[0], &d); err != nil {
		return nil, ts, err
	}
	return &d, ts, nil
}

func (rd reader) getNode(id VertexID) (*nodeprog.NodeData, bool, Timestamp, error) {
	d, ts, err := rd.nodeData("get_node", id)
	return d, d != nil, ts, err
}

func (rd reader) getEdges(id VertexID) ([]VertexID, Timestamp, error) {
	d, ts, err := rd.nodeData("get_edges", id)
	if d == nil {
		return nil, ts, err
	}
	return d.EdgesTo, ts, nil
}

func (rd reader) countEdges(id VertexID) (int, Timestamp, error) {
	res, ts, err := rd.run("count_edges", nil, id)
	if err != nil || len(res) == 0 {
		return 0, ts, err
	}
	var n int
	err = nodeprog.Decode(res[0], &n)
	return n, ts, err
}

func (rd reader) traverse(start VertexID, propKey, propValue string, maxDepth int) ([]VertexID, Timestamp, error) {
	params := nodeprog.Encode(nodeprog.TraverseParams{PropKey: propKey, PropValue: propValue, MaxDepth: maxDepth})
	res, ts, err := rd.run("traverse", params, start)
	if err != nil {
		return nil, ts, err
	}
	out := make([]VertexID, len(res))
	for i, r := range res {
		if err := nodeprog.Decode(r, &out[i]); err != nil {
			return nil, ts, err
		}
	}
	return out, ts, nil
}
