package weaver

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"weaver/internal/nodeprog"
	"weaver/internal/workload"
)

// readCases is every read the client offers, once through Client (a fresh
// timestamp, returned) and once through a ReadClient. Results are
// normalized (canon) so arrival order across shards does not matter.
var readCases = []struct {
	name  string
	fresh func(cl *Client) (any, Timestamp, error)
	at    func(r *ReadClient) (any, error)
}{
	{"GetNode",
		func(cl *Client) (any, Timestamp, error) {
			d, ok, ts, err := cl.fresh().getNode("p3")
			return []any{d, ok}, ts, err
		},
		func(r *ReadClient) (any, error) {
			d, ok, err := r.GetNode("p3")
			return []any{d, ok}, err
		}},
	{"GetEdges",
		func(cl *Client) (any, Timestamp, error) { return cl.fresh().getEdges("p3") },
		func(r *ReadClient) (any, error) { return r.GetEdges("p3") }},
	{"CountEdges",
		func(cl *Client) (any, Timestamp, error) { return cl.fresh().countEdges("p3") },
		func(r *ReadClient) (any, error) { return r.CountEdges("p3") }},
	{"Traverse",
		func(cl *Client) (any, Timestamp, error) { return cl.Traverse("p0", "", "", 0) },
		func(r *ReadClient) (any, error) { return r.Traverse("p0", "", "", 0) }},
	{"Lookup",
		func(cl *Client) (any, Timestamp, error) { return cl.Lookup("city", "a") },
		func(r *ReadClient) (any, error) { return r.Lookup("city", "a") }},
	{"LookupRange",
		func(cl *Client) (any, Timestamp, error) { return cl.LookupRange("age", "20", "60") },
		func(r *ReadClient) (any, error) { return r.LookupRange("age", "20", "60") }},
	{"LookupWhere",
		func(cl *Client) (any, Timestamp, error) {
			return cl.LookupWhere(5, Where{Key: "city", Op: OpEq, Value: "b"}, Where{Key: "age", Op: OpGt, Value: "30"})
		},
		func(r *ReadClient) (any, error) {
			return r.LookupWhere(5, Where{Key: "city", Op: OpEq, Value: "b"}, Where{Key: "age", Op: OpGt, Value: "30"})
		}},
	{"BroadcastWhere",
		func(cl *Client) (any, Timestamp, error) {
			return cl.BroadcastWhere(0, Where{Key: "city", Op: OpEq, Value: "c"})
		},
		func(r *ReadClient) (any, error) { return r.BroadcastWhere(0, Where{Key: "city", Op: OpEq, Value: "c"}) }},
	{"RunProgramWhere",
		func(cl *Client) (any, Timestamp, error) { return cl.RunProgramWhere("get_node", nil, "city", "a") },
		func(r *ReadClient) (any, error) { return r.RunProgramWhere("get_node", nil, "city", "a") }},
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

// TestReadParityFreshVsAt is the one-read-path contract: a read through
// Client at its fresh timestamp and the same read through At(that
// timestamp) are the same call below the client, so under concurrent
// writers on both gatekeepers they return identical results.
func TestReadParityFreshVsAt(t *testing.T) {
	cfg := testConfig(2, 3)
	cfg.Indexes = []IndexSpec{{Key: "city"}, {Key: "age"}}
	c := openTest(t, cfg)
	seed := workload.TestSeed(t)
	const n = 24
	pv := func(i int) VertexID { return VertexID(fmt.Sprintf("p%d", i)) }
	cities := []string{"a", "b", "c"}
	if _, err := c.Client().RunTx(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			tx.CreateVertex(pv(i))
			tx.SetProperty(pv(i), "city", cities[i%3])
			tx.SetProperty(pv(i), "age", fmt.Sprint(10+3*i))
		}
		for i := 0; i < n; i++ {
			tx.CreateEdge(pv(i), pv((i+1)%n))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := c.Client()
			r := rand.New(rand.NewSource(seed + int64(w)))
			edges := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, u := pv(r.Intn(n)), pv(r.Intn(n))
				_, err := cl.RunTx(func(tx *Tx) error {
					switch r.Intn(4) {
					case 0:
						tx.SetProperty(v, "city", cities[r.Intn(3)])
					case 1:
						tx.SetProperty(v, "age", fmt.Sprint(10+r.Intn(80)))
					case 2:
						tx.DelProperty(v, "city")
					default:
						if edges < 40 { // bounded, so traversals stay small
							tx.CreateEdge(v, u)
							edges++
						}
					}
					return nil
				})
				if err != nil && !errors.Is(err, ErrInvalid) { // deleting an absent property
					t.Errorf("writer %d: %v", w, err)
					return
				}
				time.Sleep(time.Duration(r.Intn(400)) * time.Microsecond) // pace: reads wait on applies
			}
		}(w)
	}
	defer func() { close(stop); wg.Wait() }()

	cl := c.Client()
	for round := 0; round < 30; round++ {
		for _, rc := range readCases {
			want, ts, err := rc.fresh(cl)
			if err != nil {
				t.Fatalf("%s fresh: %v", rc.name, err)
			}
			if ts.Zero() {
				t.Fatalf("%s fresh: no timestamp returned", rc.name)
			}
			got, err := rc.at(cl.At(ts))
			if err != nil {
				t.Fatalf("%s at %v: %v", rc.name, ts, err)
			}
			if want, got = canon(want), canon(got); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s at %v:\nfresh %v\nat    %v", rc.name, ts, want, got)
			}
		}
	}
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
