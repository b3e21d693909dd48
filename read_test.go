package weaver

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"weaver/internal/nodeprog"
)

// readCases is every read the client offers, once through Client (a fresh
// timestamp, returned) and once through a ReadClient. Results are
// normalized (canon) so arrival order across shards does not matter.
var readCases = []probe{
	{"GetNode",
		func(cl *Client) (any, Timestamp, error) {
			d, ok, ts, err := cl.fresh().getNode("v03")
			return []any{d, ok}, ts, err
		},
		func(r *ReadClient) (any, error) {
			d, ok, err := r.GetNode("v03")
			return []any{d, ok}, err
		}},
	{"GetEdges",
		func(cl *Client) (any, Timestamp, error) { return cl.fresh().getEdges("v03") },
		func(r *ReadClient) (any, error) { return r.GetEdges("v03") }},
	{"CountEdges",
		func(cl *Client) (any, Timestamp, error) { return cl.fresh().countEdges("v03") },
		func(r *ReadClient) (any, error) { return r.CountEdges("v03") }},
	{"Traverse",
		func(cl *Client) (any, Timestamp, error) { return cl.Traverse("v00", "", "", 0) },
		func(r *ReadClient) (any, error) { return r.Traverse("v00", "", "", 0) }},
	{"Lookup",
		func(cl *Client) (any, Timestamp, error) { return cl.Lookup("city", "c0") },
		func(r *ReadClient) (any, error) { return r.Lookup("city", "c0") }},
	{"LookupRange",
		func(cl *Client) (any, Timestamp, error) { return cl.LookupRange("age", "20", "60") },
		func(r *ReadClient) (any, error) { return r.LookupRange("age", "20", "60") }},
	{"LookupWhere",
		func(cl *Client) (any, Timestamp, error) {
			return cl.LookupWhere(5, Where{Key: "city", Op: OpEq, Value: "c1"}, Where{Key: "age", Op: OpGt, Value: "30"})
		},
		func(r *ReadClient) (any, error) {
			return r.LookupWhere(5, Where{Key: "city", Op: OpEq, Value: "c1"}, Where{Key: "age", Op: OpGt, Value: "30"})
		}},
	{"BroadcastWhere",
		func(cl *Client) (any, Timestamp, error) {
			return cl.BroadcastWhere(0, Where{Key: "city", Op: OpEq, Value: "c2"})
		},
		func(r *ReadClient) (any, error) {
			return r.BroadcastWhere(0, Where{Key: "city", Op: OpEq, Value: "c2"})
		}},
	{"RunProgramWhere",
		func(cl *Client) (any, Timestamp, error) { return cl.RunProgramWhere("get_node", nil, "city", "c0") },
		func(r *ReadClient) (any, error) { return r.RunProgramWhere("get_node", nil, "city", "c0") }},
}

// canon sorts the order-free parts of a read result in place.
func canon(v any) any {
	switch x := v.(type) {
	case []any:
		for i := range x {
			x[i] = canon(x[i])
		}
	case *nodeprog.NodeData:
		if x != nil {
			canon(x.EdgesTo)
		}
	case []VertexID:
		sort.Slice(x, func(i, j int) bool { return x[i] < x[j] })
	case [][]byte: // raw per-visit results: decode NodeData so edge order cannot matter
		out := make([]string, len(x))
		for i, raw := range x {
			var d nodeprog.NodeData
			if err := nodeprog.Decode(raw, &d); err != nil {
				out[i] = string(raw)
				continue
			}
			out[i] = fmt.Sprint(canon(&d))
		}
		sort.Strings(out)
		return out
	}
	return v
}

// TestZeroTimestampReadClientFailsEveryRead: to the gatekeeper a zero read
// timestamp means "fresh", so a ReadClient holding one must refuse every
// read — with the one error — rather than silently return current data.
func TestZeroTimestampReadClientFailsEveryRead(t *testing.T) {
	cfg := testConfig(1, 1)
	cfg.Indexes = []IndexSpec{{Key: "city"}, {Key: "age"}}
	c := openTest(t, cfg)
	r := c.Client().At(Timestamp{})
	for _, rc := range readCases {
		if _, err := rc.at(r); !errors.Is(err, errZeroReadTS) {
			t.Errorf("%s: err = %v, want errZeroReadTS", rc.name, err)
		}
	}
	if _, err := r.RunProgram("get_node", nil, "p0"); !errors.Is(err, errZeroReadTS) {
		t.Errorf("RunProgram: err = %v, want errZeroReadTS", err)
	}
	if st := c.Stats().Gatekeepers[0]; st.ProgsStarted+st.LookupsStarted != 0 {
		t.Errorf("a zero-timestamp read reached the gatekeeper: %+v", st)
	}
}
