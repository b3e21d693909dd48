package nodeprog

import (
	"reflect"
	"strings"
	"testing"

	"weaver/internal/graph"
)

// codecSample is one payload value and what decoding its encoding yields
// (nil: the value itself). Empty collections decode as nil.
type codecSample struct {
	in, want any
}

func codecSamples() []codecSample {
	ids := []graph.VertexID{"a", "日本/語", ""}
	return []codecSample{
		{in: graph.VertexID("user/42")},
		{in: graph.VertexID("")},
		{in: graph.VertexID("ünïcödé/✓")},
		{in: 0},
		{in: -7},
		{in: 1 << 40},
		{in: true},
		{in: false},
		{in: TraverseParams{PropKey: "kind", PropValue: "friend", MaxDepth: 3, Depth: 1}},
		{in: TraverseParams{}},
		{in: TraverseParams{PropKey: "clé", PropValue: "värde", MaxDepth: -1, Depth: -2}},
		{in: NodeData{ID: "v", Props: map[string]string{"name": "x", "城市": "伊萨卡"}, EdgesTo: ids, NumEdges: 3}},
		{in: NodeData{ID: "v", Props: map[string]string{}, EdgesTo: []graph.VertexID{}}, want: NodeData{ID: "v"}},
		{in: NodeData{}},
		{in: ReachParams{Target: "t", PropKey: "k", PropValue: "v"}},
		{in: ReachParams{}},
		{in: SPParams{Target: "t", Dist: 5}},
		{in: SPParams{Dist: -1}},
		{in: spState{Dist: 2, Set: true}},
		{in: spState{}},
		{in: SPResult{Dist: -3}},
		{in: SPResult{}},
		{in: CCParams{Center: "c", Neighbors: ids}},
		{in: CCParams{Center: "c", Neighbors: []graph.VertexID{}}, want: CCParams{Center: "c"}},
		{in: CCResult{IsCenter: true, Degree: 4}},
		{in: CCResult{Links: -1}},
		{in: BlockTxData{Tx: "tx/1", Inputs: ids[:1], Outputs: ids}},
		{in: BlockTxData{Tx: "tx/2", Inputs: []graph.VertexID{}}, want: BlockTxData{Tx: "tx/2"}},
	}
}

// decodeAs decodes data into a fresh value of proto's type and returns it.
func decodeAs(data []byte, proto any) (any, error) {
	p := reflect.New(reflect.TypeOf(proto))
	err := Decode(data, p.Interface())
	return p.Elem().Interface(), err
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, s := range codecSamples() {
		want := s.want
		if want == nil {
			want = s.in
		}
		got, err := decodeAs(Encode(s.in), s.in)
		if err != nil {
			t.Errorf("%T %+v: %v", s.in, s.in, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T round trip: got %#v, want %#v", s.in, got, want)
		}
	}
}

// TestCodecCoversEveryPayloadType keeps the samples in step with the
// codec: a tag no sample encodes to is a payload type that goes untested.
func TestCodecCoversEveryPayloadType(t *testing.T) {
	seen := map[byte]bool{}
	for _, s := range codecSamples() {
		seen[Encode(s.in)[0]] = true
	}
	for tag := byte(1); tag <= numTags; tag++ {
		if !seen[tag] {
			t.Errorf("no sample encodes to tag %d", tag)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	// A count_edges result read as get_node's NodeData: the wrong tag.
	res, err := CountEdges{}.Visit(&Context{VertexID: "v", Vertex: view("v", nil, edge("a", nil))})
	if err != nil {
		t.Fatal(err)
	}
	var nd NodeData
	if err := Decode(res.Return, &nd); err == nil || !strings.Contains(err.Error(), "tag") {
		t.Fatalf("count_edges result decoded into *NodeData: err = %v", err)
	}
	for _, s := range codecSamples() {
		buf := Encode(s.in)
		for n := 0; n < len(buf); n++ {
			if _, err := decodeAs(buf[:n], s.in); err == nil {
				t.Errorf("%T %+v: truncation to %d of %d bytes decoded", s.in, s.in, n, len(buf))
			}
		}
		if _, err := decodeAs(append(buf, 0), s.in); err == nil {
			t.Errorf("%T %+v: trailing byte accepted", s.in, s.in)
		}
	}
	var f float64
	if err := Decode(Encode(1), &f); err == nil {
		t.Fatal("decode into a type without a codec must fail")
	}
}

func TestEncodeUnknownTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Encode of a type without a codec must panic")
		}
	}()
	Encode(&TraverseParams{})
}

// TestCodecAllocs pins the cost of the params codec every traversal hop
// pays: one allocation to encode (the returned payload), and on decode
// one per non-empty string field and nothing else.
func TestCodecAllocs(t *testing.T) {
	p := TraverseParams{PropKey: "kind", PropValue: "friend", MaxDepth: 3, Depth: 1}
	if got := testing.AllocsPerRun(200, func() { Encode(p) }); got != 1 {
		t.Errorf("Encode(TraverseParams): %.1f allocs/op, want 1", got)
	}
	for _, c := range []struct {
		p       TraverseParams
		strings float64
	}{{p, 2}, {TraverseParams{PropKey: "kind", MaxDepth: 3}, 1}, {TraverseParams{MaxDepth: 3}, 0}} {
		buf := Encode(c.p)
		var out TraverseParams
		got := testing.AllocsPerRun(200, func() {
			if err := Decode(buf, &out); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.strings {
			t.Errorf("Decode(*TraverseParams) of %+v: %.1f allocs/op, want ≤ %.0f", c.p, got, c.strings)
		}
	}
}
